"""Time ``MasslessProfile.energy_series`` and measure its error.

Motions: the 8 of the benchmark's scan grid (sinusoidal wall,
``beta = 0.14``, period 1, ``alpha`` from ``perfbench/workloads.py``) with a
right-moving bump (centre 0.13, width 0.06, amplitude 1), each sampled as
``scan`` samples it (32 per window of ``p`` periods, 8 windows; one-period
windows without a resonance), and the ``m = 0`` leg of
``demos/example.cfg`` (32 per period, 12 periods).

For each ``--src`` tree a fresh process imports that tree's ``kgcavity``
and records, per motion, the seconds of one ``energy_series`` call over all
samples (median of 3) and the energies.  The reference integrates ``G'^2``
over ``[h(t), k(t)]`` in ``eta`` with 24-node Gauss panels between the kink
images, every panel cut into 512, on every ``--ref-stride``-th sample; it
runs once, with this checkout's ``src``.  Where ``G'`` compresses below
those panels the reference itself is off, so a second one, this checkout's
``energy_series`` with 2048 extra uniform cuts of ``[-a(0), a(0)]``, is
recorded beside it.  Recorded per tree and motion: the seconds and the
largest relative error against both references; per motion also the
largest relative difference between the first tree and each other, and
the Gauss panels of ``energy_series`` (``panels``) with those where
``G0' != 0`` (``live_panels``, the ones this checkout pushes through F).

Run from the repository root:

    python bench/energy.py --src parent=/path/to/old/checkout/src --src change=src \\
        --out /tmp/energy.json

Results go to ``--out`` (relative to the repository root), which has no
default so that a run never overwrites a checked-in record
(``BENCH_11.json`` and ``BENCH_29.json`` were written by this script).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEAT = 3
SPW = 32
CUT = 512
BUMP = (0.13, 0.06, 1.0, "right")
EXAMPLE = {"name": "example m=0", "alpha": 0.5, "beta": 0.012, "window": 1.0,
           "windows": 12, "bump": (0.15, 0.10, 1.0, "right")}


def _profile(motion):
    from kgcavity import boundary, cauchy, characteristics_solver

    maps = boundary.CharacteristicMaps(boundary.make_motion(
        {"profile": "sinusoidal", "alpha": motion["alpha"], "beta": motion["beta"],
         "period": 1.0}))
    data = cauchy.make_bump(maps.a0, *motion["bump"])
    return characteristics_solver.build_initial_profile(data, maps)


def _times(motion):
    return motion["window"] / SPW * np.arange(motion["windows"] * SPW)


def child(motions):
    """Seconds and energies of energy_series on every motion, as JSON."""
    rows = []
    for motion in motions:
        prof, ts = _profile(motion), _times(motion)
        secs = []
        for _ in range(REPEAT):
            t0 = time.perf_counter()
            E = prof.energy_series(ts)
            secs.append(time.perf_counter() - t0)
        rows.append({"energy_series_s": statistics.median(secs), "E": E.tolist()})
    json.dump(rows, sys.stdout)


def reference(prof, ts):
    """E_0 by Gauss panels in eta between kink images, each cut into CUT."""
    nodes, weights = np.polynomial.legendre.leggauss(24)
    maps = prof.maps
    his, los = np.asarray(maps.k(ts)), np.asarray(maps.h(ts))
    images = list(prof._initial_kinks)
    cur = prof._initial_kinks[prof._initial_kinks > -prof.a0]
    while cur.size:
        cur = np.asarray(maps.F(cur))
        cur = cur[cur <= his.max() + 1e-9]
        images.extend(cur.tolist())
    images = np.unique(images)
    out = []
    for lo, hi in zip(los, his):
        edges = np.concatenate([[lo], images[(images > lo) & (images < hi)], [hi]])
        e0 = (edges[:-1, None] + np.diff(edges)[:, None] * np.arange(CUT) / CUT).ravel()
        e1 = np.append(e0[1:], hi)
        x = 0.5 * (e0 + e1)[:, None] + 0.5 * (e1 - e0)[:, None] * nodes
        w = 0.5 * (e1 - e0)[:, None] * weights
        out.append(float(np.sum(w * prof.G_prime(x.ravel()).reshape(x.shape) ** 2)))
    return np.array(out)


def refined_zeta(prof, ts):
    """energy_series of this checkout with 2048 extra uniform panel cuts."""
    kinks = prof._initial_kinks
    prof._initial_kinks = np.union1d(kinks, np.linspace(-prof.a0, prof.a0, 2049))
    try:
        return prof.energy_series(ts)
    finally:
        prof._initial_kinks = kinks


def panel_counts(prof, ts):
    """(panels, live panels) of energy_series: the Gauss panels between the
    initial kinks and the pulled-back h(t), and those with w G0'^2 != 0."""
    from kgcavity import characteristics_solver as cs
    from kgcavity._quadrature import gauss_panels

    ys = prof.pullback(prof.maps.h(ts))[0]
    cuts = np.union1d(prof._initial_kinks, ys)
    x, w = gauss_panels(cuts[:-1], cuts[1:], cs._GAUSS_NODES, cs._GAUSS_WEIGHTS)
    wg = w * prof._G0_prime(x.ravel()).reshape(x.shape) ** 2
    return cuts.size - 1, int(wg.any(axis=1).sum())


def motions():
    from kgcavity import circle_dynamics
    from perfbench.workloads import SCAN_ALPHAS, SCAN_BETA

    out = []
    for alpha in SCAN_ALPHAS:
        motion = {"alpha": alpha, "beta": SCAN_BETA, "windows": 8, "bump": BUMP}
        analysis = circle_dynamics.analyze_map(_profile(motion).maps, 100_000, max_q=20)
        p_q = analysis.resonance
        motion["name"] = "alpha=%g %s" % (alpha, "%d:%d" % tuple(p_q) if p_q else "no p:q")
        motion["window"] = float(p_q[0]) if p_q else 1.0
        out.append(motion)
    return out + [EXAMPLE]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", action="append", metavar="NAME=PATH",
                    help="a named kgcavity source tree to time (repeatable)")
    ap.add_argument("--ref-stride", type=int, default=1,
                    help="compare every n-th sample with the reference (default 1)")
    ap.add_argument("--out", required=True,
                    help="result file, relative to the repository root")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child(json.loads(args.child))

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    todo = motions()
    trees = {}
    for spec in args.src or ["change=src"]:
        name, path = spec.split("=", 1)
        env = dict(os.environ, PYTHONPATH=os.path.abspath(path))
        out = subprocess.run([sys.executable, os.path.abspath(__file__),
                              "--out", args.out, "--child", json.dumps(todo)],
                             env=env, check=True, capture_output=True, text=True).stdout
        trees[name] = json.loads(out)
        print(name, [round(r["energy_series_s"], 4) for r in trees[name]], flush=True)

    rows = []
    first = next(iter(trees))
    for i, motion in enumerate(todo):
        sub = slice(None, None, args.ref_stride)
        t0 = time.perf_counter()
        ref = reference(_profile(motion), _times(motion)[sub])
        row = {"motion": motion["name"], "samples": len(_times(motion)),
               "reference_samples": len(ref), "reference_s": time.perf_counter() - t0}
        row["panels"], row["live_panels"] = panel_counts(_profile(motion), _times(motion))
        zeta = refined_zeta(_profile(motion), _times(motion))
        for name, res in trees.items():
            E = np.asarray(res[i]["E"])
            row[name] = {"energy_series_s": res[i]["energy_series_s"],
                         "max_rel_err": float(np.max(np.abs(E[sub] / ref - 1.0))),
                         "max_rel_err_zeta": float(np.max(np.abs(E / zeta - 1.0)))}
            if name != first:
                E0 = np.asarray(trees[first][i]["E"])
                row[name]["max_rel_diff_" + first] = float(np.max(np.abs(E / E0 - 1.0)))
        print(json.dumps(row), flush=True)
        rows.append(row)

    scan_rows = rows[:-1]
    bench = {
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "repeat": REPEAT, "samples_per_window": SPW, "reference_cut": CUT,
        "reference_stride": args.ref_stride,
        "motions": rows,
        "totals": {name: {"scan_energy_series_s": sum(r[name]["energy_series_s"]
                                                      for r in scan_rows),
                          "scan_max_rel_err": max(r[name]["max_rel_err"] for r in scan_rows),
                          "scan_max_rel_err_zeta": max(r[name]["max_rel_err_zeta"]
                                                       for r in scan_rows)}
                   for name in trees},
    }
    with open(os.path.join(ROOT, args.out), "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
