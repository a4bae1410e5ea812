"""40-digit periodic points of a sinusoidal wall, the reference of
``tests/test_circle_dynamics.py::test_periodic_points_15_17_reference`` and
of the close pairs of ``test_close_pair_inside_one_cell`` and
``test_close_pairs_through_the_orbit_images``.

The wall is ``sinusoidal(alpha, beta, 1)``, by default
``sinusoidal(0.35, 0.14, 1)`` with ``p:q = 15:17``.  Each point that
``find_periodic_points(maps, p, q)`` returns is refined with ``mpmath``
at 50 significant digits: Newton on g(x) = F^q(x) - x - p, where
F(x) = x + 2 a(t) with t - a(t) = x solved by Newton, and
g'(x) = DF^q(x) - 1 with DF = (1 + a'(t)) / (1 - a'(t)) along the orbit.
The script prints, and writes to ``--out`` as JSON, each x and DF^q(x)
to 40 digits, in the order of the float search.

``--alpha`` and ``--beta`` are read as exact decimals; with ``--doubles``
they are read as the binary doubles that ``float()`` makes of them, the
values the package computes with.  Near a tongue edge that matters: g' at
a close pair is small, so the 1.3e-17 between 0.14 and its double moves
the pair of ``sinusoidal(0.36 + 1e-10, 0.14, 1)`` by about 4e-13.

Run from the repository root:

    python bench/periodic_reference.py --out /tmp/periodic_reference.json
    python bench/periodic_reference.py --alpha 0.3600000001 --p 1 --q 1 --doubles --out /tmp/pair_11.json
    python bench/periodic_reference.py --alpha 0.2979191970122564 --p 2 --q 3 --doubles --out /tmp/pair_23.json

``mpmath`` is needed only here; the tests hard-code the values.
"""

import argparse
import json
import os
import sys

import mpmath as mp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGITS = 40
# the wall's mean and amplitude and the resonance p:q, set by main
ALPHA, BETA, P, Q = mp.mpf("0.35"), mp.mpf("0.14"), 15, 17


def _wall(t):
    w = 2 * mp.pi
    return ALPHA + BETA * mp.sin(w * t), BETA * w * mp.cos(w * t)


def _F_and_dF(x):
    t = x + ALPHA
    for _ in range(200):
        a, da = _wall(t)
        step = (t - a - x) / (1 - da)
        t -= step
        if abs(step) < mp.mpf(10) ** (-mp.mp.dps + 5):
            break
    else:
        raise RuntimeError("h^-1 did not converge at x = %s" % x)
    a, da = _wall(t)
    return x + 2 * a, (1 + da) / (1 - da)


def _g_and_dg(x):
    y, mult = x, mp.mpf(1)
    for _ in range(Q):
        y, d = _F_and_dF(y)
        mult *= d
    return y - x - P, mult


def refine(x):
    """(x, DF^17(x)) at the root of g nearest to the float x."""
    x = mp.mpf(x)
    for _ in range(100):
        g, mult = _g_and_dg(x)
        step = g / (mult - 1)
        x -= step
        if abs(step) < mp.mpf(10) ** (-DIGITS - 5):
            break
    else:
        raise RuntimeError("no convergence from %s" % x)
    return x, _g_and_dg(x)[1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the kgcavity package (default: ./src)")
    ap.add_argument("--out", required=True, help="result file (JSON)")
    ap.add_argument("--alpha", default="0.35", help="mean of the wall (default 0.35)")
    ap.add_argument("--beta", default="0.14", help="amplitude of the wall (default 0.14)")
    ap.add_argument("--p", type=int, default=15, help="resonance p (default 15)")
    ap.add_argument("--q", type=int, default=17, help="resonance q (default 17)")
    ap.add_argument("--doubles", action="store_true",
                    help="read --alpha and --beta as binary doubles, not exact decimals")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from kgcavity import boundary, circle_dynamics as cd

    global ALPHA, BETA, P, Q
    mp.mp.dps = DIGITS + 10
    read = (lambda v: mp.mpf(float(v))) if args.doubles else mp.mpf
    ALPHA, BETA, P, Q = read(args.alpha), read(args.beta), args.p, args.q
    maps = boundary.CharacteristicMaps(boundary.make_motion(
        {"profile": "sinusoidal", "alpha": float(args.alpha), "beta": float(args.beta),
         "period": 1.0}))
    rows = []
    for pt in cd.find_periodic_points(maps, P, Q):
        x, mult = refine(pt.x)
        rows.append({"x": mp.nstr(x, DIGITS), "multiplier": mp.nstr(mult, DIGITS),
                     "kind": pt.kind})
        print('    ("%s", "%s"),' % (rows[-1]["x"], rows[-1]["multiplier"]), flush=True)
    with open(args.out, "w") as fh:
        json.dump({"motion": "sinusoidal(%s, %s, 1)" % (args.alpha, args.beta),
                   "doubles": args.doubles, "p": P, "q": Q,
                   "digits": DIGITS, "points": rows}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
