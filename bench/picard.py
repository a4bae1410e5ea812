"""Time the massive Picard solve and compare its fixed point across trees.

Each size solves ``picard_solve`` on the ``demos/example.cfg`` wall
(sinusoidal, ``alpha = 0.5``, ``beta = 0.012``, period 1) with the bump
``make_bump(0.5, 0.15, 0.1, 1, "right")`` at ``m = 0.27``, for
``t_max`` periods at an ``a(0)/res`` lattice:

    res 256, 512, 1024 at 12 periods, and res 256 at 40 periods.

Every size runs in its own process, which records

- seconds: median of 3 solves at the default ``tol = 1e-9``;
- ``ru_maxrss`` after those solves (MB, interpreter included);
- the band shape, the sweep count (``iterations``), the passes per block
  of rows (mean, max and total) and the contraction bound ``q`` of each
  block against its largest measured ratio of successive changes;
- the sha256 of the default-tol field ``phi``, of its ``changes`` and
  ``row_sup`` (float64 bytes) and of ``block_passes`` (int64 bytes), so
  that trees whose march should agree bit for bit can be compared;
- ``tol_gap``: after one more solve at ``tol = 1e-14``,
  ``max|phi_tol - phi| / sup|phi0|`` of the default-tol field against it,
  the distance to the fixed point that ``tol = 1e-9`` leaves;
- ``fixed_point_gap``: ``max|phi - phi_parent| / sup|phi0|`` of that
  ``tol = 1e-14`` field against the one that the ``parent`` label saved in
  ``--phi-dir``.

One more process per run records the massive energies of ``simulate`` on
the same wall and bump through ``picard_energy_series``: ``m = 0.27``, res
512, ``t_max = 12 + 1/16`` and the 384 sample times ``(k + 1/2)/32``.  It
records the seconds (median of 3), ``ru_maxrss`` after them, the
``tracemalloc`` peak of one further call, and the sha256 of the returned
``(t, E, share)`` bytes.

Run from the repository root; ``--src`` picks the ``kgcavity`` source tree
to measure, so the same script measures an older checkout too.  Measure the
parent first, since other labels compare against its fields:

    python bench/picard.py --label parent --src /path/to/old/checkout/src \\
        --phi-dir /path/to/scratch --out /tmp/picard.json
    python bench/picard.py --label change --phi-dir /path/to/scratch \\
        --out /tmp/picard.json

The fields are band-sized (about 430 MB at res 1024), so ``--phi-dir``
should point to a scratch directory.  Each run replaces its label's entry
in the ``--out`` file (relative to the repository root) and keeps the
others; ``--out`` has no default so that a run never overwrites a
checked-in record (``BENCH_6.json``, ``BENCH_18.json``, ``BENCH_20.json``
and ``BENCH_21.json`` were written by this script).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = ((256, 12), (512, 12), (1024, 12), (256, 40))
MASS = 0.27
REPEAT = 3
REFERENCE = "parent"
ENERGY_RES = 512
ENERGY_T_MAX = 12.0 + 1.0 / 16.0
ENERGY_TIMES = 384                  # 32 per period, as simulate samples


def _phi_path(phi_dir, label, res, periods):
    return os.path.join(phi_dir, "%s-res%d-t%d.npy" % (label, res, periods))


def _inputs():
    from kgcavity import boundary, cauchy

    maps = boundary.CharacteristicMaps(boundary.make_motion(
        {"profile": "sinusoidal", "alpha": 0.5, "beta": 0.012, "period": 1.0}))
    return cauchy.make_bump(0.5, 0.15, 0.1, 1.0, "right"), maps


def _gap(a, b):
    """max|a - b| over two bands, 1024 rows at a time."""
    import numpy as np

    gap = 0.0
    for r0 in range(0, a.shape[0], 1024):
        gap = max(gap, float(np.max(np.abs(a[r0:r0 + 1024] - b[r0:r0 + 1024]))))
    return gap


def measure(res, periods, label, phi_dir):
    """One size, in this process: a row of ``sizes``."""
    import hashlib
    import resource

    import numpy as np
    from kgcavity import kleingordon as kg

    data, maps = _inputs()
    times = []
    for _ in range(REPEAT):
        fg = None              # one field alive at a time, as in a single solve
        t0 = time.perf_counter()
        fg = kg.picard_solve(data, maps, MASS, resolution=res, t_max=periods)
        times.append(time.perf_counter() - t0)
    row = {"resolution": res, "periods": periods,
           "seconds": statistics.median(times), "seconds_all": times,
           "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "band": [fg.lattice.R, fg.lattice.Wmax],
           "iterations": fg.iterations, "changes": fg.changes}
    passes, q = fg.block_passes, fg.contraction
    row["passes_per_block"] = {"mean": float(passes.mean()),
                               "max": int(passes.max()),
                               "total": int(passes.sum()),
                               "blocks": int(passes.size)}
    row["contraction"] = {"q_min": float(q.min()), "q_max": float(q.max()),
                          "ratio_max": float(fg.ratios.max()),
                          "ratio_over_q_max": float(np.max(fg.ratios / q))}
    digests = {"phi": fg.phi, "changes": np.array(fg.changes, dtype=float),
               "row_sup": fg.row_sup, "block_passes": passes.astype(np.int64)}
    for name, a in digests.items():
        row[name + "_sha256"] = hashlib.sha256(
            np.ascontiguousarray(a).tobytes()).hexdigest()
    tol_path = _phi_path(phi_dir, label + "-tol", res, periods)
    np.save(tol_path, fg.phi)          # on disk: one band in memory at a time
    fg = None
    fg = kg.picard_solve(data, maps, MASS, resolution=res, t_max=periods, tol=1e-14)
    np.save(_phi_path(phi_dir, label, res, periods), fg.phi)
    row["tol_gap"] = _gap(fg.phi, np.load(tol_path, mmap_mode="r")) / fg.sup_phi0
    os.remove(tol_path)
    ref = _phi_path(phi_dir, REFERENCE, res, periods)
    if label != REFERENCE and os.path.exists(ref):
        row["fixed_point_gap"] = _gap(fg.phi, np.load(ref, mmap_mode="r")) / fg.sup_phi0
    return row


def measure_energies():
    """The massive energies of simulate, in this process: the ``energies`` row."""
    import hashlib
    import resource
    import tracemalloc

    import numpy as np
    from kgcavity import kleingordon as kg

    data, maps = _inputs()
    want = (np.arange(ENERGY_TIMES) + 0.5) / 32.0

    def energies():
        return kg.picard_energy_series(data, maps, MASS, want,
                                       resolution=ENERGY_RES, t_max=ENERGY_T_MAX)

    times = []
    for _ in range(REPEAT):
        result = None          # one field alive at a time, as in simulate
        t0 = time.perf_counter()
        result = energies()
        times.append(time.perf_counter() - t0)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = None
    tracemalloc.start()
    run, series = energies()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"resolution": ENERGY_RES, "t_max": ENERGY_T_MAX, "samples": ENERGY_TIMES,
            "seconds": statistics.median(times), "seconds_all": times,
            "ru_maxrss_mb": rss, "tracemalloc_peak_mb": peak / 2**20,
            "band": [run.lattice.R, run.lattice.Wmax],
            "band_mb": 8 * run.lattice.R * run.lattice.Wmax / 2**20,
            "energies_returned": len(series[0]), "changes": run.changes,
            "block_passes": int(run.block_passes.sum()),
            "series_sha256": hashlib.sha256(
                b"".join(a.tobytes() for a in series)).hexdigest()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="entry name, e.g. parent or change")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the kgcavity package (default: ./src)")
    ap.add_argument("--phi-dir", default=os.path.join(ROOT, ".bench_picard"),
                    help="directory for the tol-1e-14 fields (default: ./.bench_picard)")
    ap.add_argument("--out", required=True,
                    help="result file, relative to the repository root")
    ap.add_argument("--size", nargs=2, type=int, metavar=("RES", "PERIODS"),
                    help=argparse.SUPPRESS)      # one size, in this process
    ap.add_argument("--energies", action="store_true",
                    help=argparse.SUPPRESS)      # the energies row, in this process
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)

    if args.size or args.energies:
        sys.path.insert(0, src)
        row = (measure_energies() if args.energies else
               measure(args.size[0], args.size[1], args.label, args.phi_dir))
        print(json.dumps(row), flush=True)
        return

    def child(*flags):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--label", args.label,
             "--src", src, "--phi-dir", args.phi_dir, "--out", args.out, *flags],
            check=True, stdout=subprocess.PIPE, text=True).stdout
        row = json.loads(out.strip().splitlines()[-1])
        print(json.dumps({k: v for k, v in row.items() if k != "changes"}), flush=True)
        return row

    os.makedirs(args.phi_dir, exist_ok=True)
    rows = [child("--size", str(res), str(periods)) for res, periods in SIZES]
    energies = child("--energies")

    import numpy
    entry = {
        "host": {"python": platform.python_version(), "numpy": numpy.__version__,
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "mass": MASS,
        "repeat": REPEAT,
        "sizes": rows,
        "energies": energies,
    }
    out = os.path.join(ROOT, args.out)
    bench = {}
    if os.path.exists(out):
        with open(out) as fh:
            bench = json.load(fh)
    bench[args.label] = entry
    with open(out, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
