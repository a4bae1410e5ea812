"""Time and count the two circle-map layers of the ``scan`` workload.

For each of the 8 motions of the benchmark's scan grid (sinusoidal wall,
``beta = 0.14``, period 1, ``alpha`` from ``perfbench/workloads.py``) this
records

- ``rotation_number(maps, 1e5)``: seconds (median of 3 runs without
  counters) and profile evaluations (``a_scalar`` plus
  ``da_scalar`` calls) per orbit step, counted in one further run;
- ``find_periodic_points`` at the detected ``p:q`` (when there is one):
  seconds (median of 3 runs) and ``_invert`` calls.

Run from the repository root; ``--src`` picks the ``kgcavity`` source tree
to measure, so the same script measures an older checkout too:

    python bench/orbits.py --label change
    python bench/orbits.py --label parent --src /path/to/old/checkout/src

Each run replaces its label's entry in ``BENCH_5.json`` and keeps the others.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ITERATIONS = 100_000
MAX_Q = 20
REPEAT = 3
OUT = os.path.join(ROOT, "BENCH_5.json")


def _counting(fn, counter):
    def wrapped(*args):
        counter[0] += 1
        return fn(*args)
    return wrapped


def _median_seconds(fn):
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def measure(alpha, beta):
    from kgcavity import boundary, circle_dynamics as cd

    maps = boundary.CharacteristicMaps(boundary.make_motion(
        {"profile": "sinusoidal", "alpha": alpha, "beta": beta, "period": 1.0}))
    rot_s, (est, hw) = _median_seconds(
        lambda: cd.rotation_number(maps, ITERATIONS))

    prof = maps.motion.profile
    evals = [0]
    prof.a_scalar = _counting(prof.a_scalar, evals)
    prof.da_scalar = _counting(prof.da_scalar, evals)
    cd.rotation_number(maps, ITERATIONS)
    del prof.a_scalar, prof.da_scalar

    row = {"alpha": alpha, "rho": est, "rotation_number_s": rot_s,
           "evals_per_step": evals[0] / ITERATIONS, "resonance": None}
    try:
        res = cd.detect_resonance(est, hw, maps.T, MAX_Q)
    except cd.AmbiguousResonance:
        res = None
    if res is None:
        return row
    p, q = res
    row["resonance"] = [p, q]
    try:
        fpp_s, points = _median_seconds(
            lambda: cd.find_periodic_points(maps, p, q))
    except (cd.DegenerateMap, cd.NeutralPoint) as exc:
        row["find_periodic_points"] = type(exc).__name__
        return row
    calls = [0]
    maps._invert = _counting(maps._invert, calls)
    cd.find_periodic_points(maps, p, q)
    del maps._invert
    row.update({"find_periodic_points_s": fpp_s, "invert_calls": calls[0],
                "periodic_points": len(points)})
    return row


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="entry name, e.g. parent or change")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the kgcavity package (default: ./src)")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    sys.path.insert(0, ROOT)
    import numpy
    from perfbench.workloads import SCAN_ALPHAS, SCAN_BETA

    rows = []
    for alpha in SCAN_ALPHAS:
        row = measure(alpha, SCAN_BETA)
        print(json.dumps(row), flush=True)
        rows.append(row)
    entry = {
        "host": {"python": platform.python_version(), "numpy": numpy.__version__,
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "repeat": REPEAT,
        "iterations": ITERATIONS,
        "motions": rows,
        "totals": {
            "rotation_number_s": sum(r["rotation_number_s"] for r in rows),
            "find_periodic_points_s": sum(r.get("find_periodic_points_s", 0.0) for r in rows),
            "invert_calls": sum(r.get("invert_calls", 0) for r in rows),
        },
    }
    bench = {}
    if os.path.exists(OUT):
        with open(OUT) as fh:
            bench = json.load(fh)
    bench[args.label] = entry
    with open(OUT, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
