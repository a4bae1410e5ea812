"""Time the backward-characteristic geometry of the ``crosscheck`` workload.

On the crosscheck inputs of seed 1 (``perfbench/workloads.py``: the wall
``0.5 + 0.012 sin(2 pi t)``, 800 probe points with ``t <= 10`` and a bump)
this records

- ``F_inv`` called on 10 000 Python floats spread over ``[-3T, 30T]``:
  seconds (median of 3 runs);
- ``measure_M`` called once per probe: seconds (median of 3 runs) and the
  sha256 of the values' ``float.hex`` strings;
- ``depth`` and ``union_M`` called once per probe: seconds (median of 3
  runs) and the sha256 of the depths, and of every rectangle's sign,
  ``float.hex`` corners and clipped flag;
- ``measure_M`` called once on the arrays of all probes: seconds (median of
  3) and its largest relative distance to the per-point values, or null
  where the source tree has no array form;
- ``verify_integral_identity(samples=100)`` on the ``m = 0.27`` Picard field
  at resolution 256 and ``t_max`` 5: seconds (median of 3), the
  ``tracemalloc`` peak of one further call and the residual.

Each entry also stores the per-point values (``float.hex``) and, against
every other entry already in the file, whether the three per-point sha256
sums match and the largest relative move of a per-point ``measure_M``.

Run from the repository root; ``--src`` picks the ``kgcavity`` source tree
to measure, so the same script measures an older checkout too:

    python bench/geometry.py --label change --out /tmp/geometry.json
    python bench/geometry.py --label parent --src /path/to/old/checkout/src \\
        --out /tmp/geometry.json

Each run replaces its label's entry in the ``--out`` file (relative to the
repository root) and keeps the others; ``--out`` has no default so that a
run never overwrites a checked-in record (``BENCH_12.json`` and
``BENCH_19.json`` were written by this script).
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
MASS = 0.27
RESOLUTION = 256
T_MAX = 5.0
SAMPLES = 100
REPEAT = 3
SCALAR_CALLS = 10_000


def _median_seconds(fn):
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def measure():
    import numpy as np
    from kgcavity import boundary, experiment, kleingordon as kg
    from perfbench.workloads import generate

    spec = generate("crosscheck", SEED)
    cfg = experiment.ExperimentConfig(spec["config"])
    maps = boundary.CharacteristicMaps(boundary.make_motion({
        "profile": "sinusoidal", "alpha": cfg.float_("boundary.alpha"),
        "beta": cfg.float_("boundary.beta"), "period": cfg.float_("boundary.period")}))
    t = np.array([p[0] for p in spec["points"]])
    x = np.array([p[1] for p in spec["points"]])

    ys = (maps.T * np.linspace(-3.0, 30.0, SCALAR_CALLS)).tolist()
    scalar_s, _ = _median_seconds(lambda: [maps.F_inv(y) for y in ys])

    point_s, single = _median_seconds(lambda: [
        kg.measure_M(maps, a + b, a - b) for a, b in spec["points"]])
    hexes = " ".join(float(v).hex() for v in single)
    row = {"scalar_F_inv_calls": SCALAR_CALLS, "scalar_F_inv_s": scalar_s,
           "probes": len(single), "per_point_s": point_s,
           "per_point_sha256": _sha256(hexes),
           "per_point_hex": hexes, "array_s": None, "array_rel_dev": None}
    depth_s, depths = _median_seconds(lambda: [
        kg.depth(maps, a + b, a - b) for a, b in spec["points"]])
    union_s, unions = _median_seconds(lambda: [
        kg.union_M(maps, a + b, a - b) for a, b in spec["points"]])
    rects = ";".join(" ".join("%r %s %s %s %s %r" % (
        sign, y0.hex(), y1.hex(), z0.hex(), z1.hex(), clipped)
        for sign, (y0, y1), (z0, z1), clipped in u) for u in unions)
    row.update({"depth_per_point_s": depth_s,
                "depth_sha256": _sha256(" ".join(map(str, depths))),
                "union_M_per_point_s": union_s,
                "union_M_sha256": _sha256(rects)})
    try:
        array_s, whole = _median_seconds(lambda: kg.measure_M(maps, t + x, t - x))
        single = np.array(single)
        row.update({"array_s": array_s,
                    "array_rel_dev": float(np.max(np.abs(whole - single) / single))})
    except (TypeError, ValueError):
        pass                     # a source tree whose measure_M takes scalars only

    fg = kg.picard_solve(cfg.make_data(maps.a0), maps, MASS,
                         resolution=RESOLUTION, t_max=T_MAX)
    ident_s, residual = _median_seconds(
        lambda: kg.verify_integral_identity(fg, samples=SAMPLES, seed=SEED))
    tracemalloc.start()
    kg.verify_integral_identity(fg, samples=SAMPLES, seed=SEED)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    row.update({"identity_s": ident_s, "identity_residual": residual,
                "identity_tracemalloc_peak_mb": peak / 2**20})
    return row


def _compare(row, other):
    """sha256 matches of the per-point outputs and largest relative move of
    the per-point measures."""
    mine = [float.fromhex(v) for v in row["per_point_hex"].split()]
    theirs = [float.fromhex(v) for v in other["per_point_hex"].split()]
    return {"sha256_match": row["per_point_sha256"] == other["per_point_sha256"],
            "depth_sha256_match": row["depth_sha256"] == other.get("depth_sha256"),
            "union_M_sha256_match": row["union_M_sha256"] == other.get("union_M_sha256"),
            "max_rel_move": max(abs(a - b) / abs(b) if b else abs(a)
                                for a, b in zip(mine, theirs))}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="entry name, e.g. parent or change")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the kgcavity package (default: ./src)")
    ap.add_argument("--out", required=True,
                    help="result file, relative to the repository root")
    args = ap.parse_args(argv)
    out = os.path.join(ROOT, args.out)

    sys.path.insert(0, os.path.abspath(args.src))
    sys.path.insert(0, ROOT)
    import numpy

    row = measure()
    print(json.dumps({k: v for k, v in row.items() if k != "per_point_hex"}), flush=True)
    entry = {
        "host": {"python": platform.python_version(), "numpy": numpy.__version__,
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "repeat": REPEAT,
        "config": {"seed": SEED, "m": MASS, "resolution": RESOLUTION,
                   "t_max": T_MAX, "samples": SAMPLES},
        **row,
    }
    bench = {}
    if os.path.exists(out):
        with open(out) as fh:
            bench = json.load(fh)
    bench.pop(args.label, None)
    entry["per_point_vs"] = {label: _compare(row, other) for label, other in bench.items()}
    print(json.dumps(entry["per_point_vs"]), flush=True)
    bench[args.label] = entry
    with open(out, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
