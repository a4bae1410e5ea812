"""40-digit periodic points of the 15:17 motion, the reference of
``tests/test_circle_dynamics.py::test_periodic_points_15_17_reference``.

The wall is ``sinusoidal(0.35, 0.14, 1)``.  Each point that
``find_periodic_points(maps, 15, 17)`` returns is refined with ``mpmath``
at 50 significant digits: Newton on g(x) = F^17(x) - x - 15, where
F(x) = x + 2 a(t) with t - a(t) = x solved by Newton, and
g'(x) = DF^17(x) - 1 with DF = (1 + a'(t)) / (1 - a'(t)) along the orbit.
The script prints, and writes to ``--out`` as JSON, each x and DF^17(x)
to 40 digits, in the order of the float search.

Run from the repository root:

    python bench/periodic_reference.py --out /tmp/periodic_reference.json

``mpmath`` is needed only here; the test hard-codes the values.
"""

import argparse
import json
import os
import sys

import mpmath as mp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALPHA, BETA, P, Q = mp.mpf("0.35"), mp.mpf("0.14"), 15, 17
DIGITS = 40


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
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from kgcavity import boundary, circle_dynamics as cd

    maps = boundary.CharacteristicMaps(boundary.make_motion(
        {"profile": "sinusoidal", "alpha": 0.35, "beta": 0.14, "period": 1.0}))
    mp.mp.dps = DIGITS + 10
    rows = []
    for pt in cd.find_periodic_points(maps, P, Q):
        x, mult = refine(pt.x)
        rows.append({"x": mp.nstr(x, DIGITS), "multiplier": mp.nstr(mult, DIGITS),
                     "kind": pt.kind})
        print('    ("%s", "%s"),' % (rows[-1]["x"], rows[-1]["multiplier"]), flush=True)
    with open(args.out, "w") as fh:
        json.dump({"motion": "sinusoidal(0.35, 0.14, 1)", "p": P, "q": Q,
                   "digits": DIGITS, "points": rows}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
