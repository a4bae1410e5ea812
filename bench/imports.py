"""Import cost of ``kgcavity``, the scipy modules each command loads, and the
oracle's solve time, for one or more source trees.

For each tree, every measurement runs in a fresh interpreter, and the
processes of the trees alternate (A, B, ..., A, B, ...) so that drift of
the host during the run lands on every tree alike:

- ``import kgcavity.cli``, timed inside the child (interpreter start-up
  excluded), the minimum over ``--repeat`` processes, and the ``scipy``
  modules in ``sys.modules`` afterwards (their count and subpackages);
- the same ``scipy`` record after each of ``analyze-map``, ``simulate``,
  ``scan -w 1`` and ``verify -w 1`` on ``demos/example.cfg`` (each in a
  scratch directory holding a copy of the config), with the exit code;
- ``oracle_fdm.solve_oracle`` at ``n_y = 512``, ``t_max = 4`` with the
  example wall and data at ``m = 0.27``: the first call in a fresh process
  (which pays any scipy import the solver makes), a second call and one
  ``oracle_fdm.compare`` of that run against the exact massless field of the
  same data on the default probe times, each the minimum over ``--repeat``
  processes; the sha256 of the per-slice discrepancies and the process's
  ``scipy`` record; then a run that keeps every step (asked for with
  ``oracle_fdm.step_times``), whose ``psi`` rows are hashed;
- in the same processes, after the ``m = 0.27`` runs are released, one
  ``m = 0`` solve (the mass ``perfbench``'s ``crosscheck`` runs) and its
  ``compare``, timed (the minimum) and digested the same way;
- in a fresh process per repeat, one ``m = 0`` solve and its ``compare``,
  then the process's peak RSS (``ru_maxrss``, the maximum over the
  processes), then the ``tracemalloc`` peak of a second solve (the maximum).

Run from the repository root; ``--src`` names a directory holding the
``kgcavity`` package and may be repeated, so a parent checkout can be set
against the working tree:

    python bench/imports.py --src src --out /tmp/imports.json
    python bench/imports.py --src /path/to/parent/src --src src --out /tmp/imports.json

Trees are labelled A, B, ... in ``--src`` order; each entry carries the
sha256 of its ``kgcavity/*.py`` sources.  Results go to ``--out``, which
has no default so that a comparison run never overwrites a checked-in
record (``BENCH_10.json`` was written by this script).  The exit code is 1 when a command exits
nonzero or the oracle's full ``psi`` or ``compare`` values differ between trees,
at either mass.
"""

import argparse
import json
import os
import platform
import shutil
import string
import subprocess
import sys
import tempfile

from outputs import _tree_sha

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = os.path.join(ROOT, "demos", "example.cfg")
COMMANDS = (("analyze-map", ["analyze-map"]), ("simulate", ["simulate"]),
            ("scan -w 1", ["scan", "-w", "1"]), ("verify -w 1", ["verify", "-w", "1"]))

# scipy modules in sys.modules: their count and the subpackages they are in
_SCIPY = """{"count": sum(m.split('.')[0] == 'scipy' for m in sys.modules),
 "packages": sorted({'.'.join(m.split('.')[:2]) for m in sys.modules
                     if m.split('.')[0] == 'scipy'})}"""

IMPORT_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import kgcavity.cli
seconds = time.perf_counter() - t0
print(json.dumps({"seconds": seconds, "scipy": %s}))
""" % _SCIPY

COMMAND_CHILD = """
import contextlib, io, json, sys
from kgcavity import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
print(json.dumps({"exit": rc, "scipy": %s}))
""" % _SCIPY

_ORACLE_SETUP = """
import hashlib, json, resource, sys, time, tracemalloc
from kgcavity import boundary, oracle_fdm
from kgcavity.characteristics_solver import build_initial_profile
from kgcavity.experiment import ExperimentConfig
cfg = ExperimentConfig.from_file(sys.argv[1])
motion = cfg.make_motion()
data = cfg.make_data(motion.a0)
profile = build_initial_profile(data, boundary.CharacteristicMaps(motion))
"""

ORACLE_CHILD = _ORACLE_SETUP + """
# the times of every step, for the runs that keep them all
every = oracle_fdm.step_times(motion, 512, 4.0)
times = []
for _ in range(2):
    t0 = time.perf_counter()
    run = oracle_fdm.solve_oracle(data, motion, 0.27, n_y=512, t_max=4.0)
    times.append(time.perf_counter() - t0)
t0 = time.perf_counter()
_, sups, _ = oracle_fdm.compare(run, profile)
compare_s = time.perf_counter() - t0
del run
full = oracle_fdm.solve_oracle(data, motion, 0.27, n_y=512, t_max=4.0, times=every)
psi_shape, psi_sha256 = list(full.psi.shape), hashlib.sha256(full.psi.tobytes()).hexdigest()
del full
t0 = time.perf_counter()
run0 = oracle_fdm.solve_oracle(data, motion, 0.0, n_y=512, t_max=4.0)
m0_s = time.perf_counter() - t0
_, sups0, _ = oracle_fdm.compare(run0, profile)
del run0
full0 = oracle_fdm.solve_oracle(data, motion, 0.0, n_y=512, t_max=4.0, times=every)
print(json.dumps({"first_s": times[0], "second_s": times[1], "compare_s": compare_s,
                  "m0_s": m0_s,
                  "psi_shape": psi_shape,
                  "psi_sha256": psi_sha256,
                  "compare_sha256": hashlib.sha256(sups.tobytes()).hexdigest(),
                  "m0_psi_sha256": hashlib.sha256(full0.psi.tobytes()).hexdigest(),
                  "m0_compare_sha256": hashlib.sha256(sups0.tobytes()).hexdigest(),
                  "scipy": %s}))
""" % _SCIPY

# crosscheck's oracle step: an m = 0 solve on the default probe times and
# its compare, with the run alive; then a traced second solve
MEMORY_CHILD = _ORACLE_SETUP + """
run = oracle_fdm.solve_oracle(data, motion, 0.0, n_y=512, t_max=4.0)
oracle_fdm.compare(run, profile)
del run
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
tracemalloc.start()
run = oracle_fdm.solve_oracle(data, motion, 0.0, n_y=512, t_max=4.0)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps({"peak_rss_mb": peak_rss_mb, "tracemalloc_peak_mb": peak / 1e6,
                  "psi_shape": list(run.psi.shape)}))
"""


def _child(src, code, args=(), cwd=None):
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise SystemExit("child failed in %s" % src)
    return json.loads(proc.stdout.splitlines()[-1])


def measure(srcs, repeat):
    """One result dict per tree of ``srcs``.  The trees' processes alternate
    (tree A, tree B, ..., then A again), so drift of the host lands on every
    tree alike."""
    imports = {src: [] for src in srcs}
    commands = {src: {} for src in srcs}
    oracle = {src: [] for src in srcs}
    memory = {src: [] for src in srcs}
    for _ in range(repeat):
        for src in srcs:
            imports[src].append(_child(src, IMPORT_CHILD))
    for name, argv in COMMANDS:
        for src in srcs:
            with tempfile.TemporaryDirectory(prefix="kgcavity-imports-") as run:
                shutil.copy(CONFIG, os.path.join(run, "example.cfg"))
                commands[src][name] = _child(src, COMMAND_CHILD,
                                             [argv[0], "example.cfg", *argv[1:]], cwd=run)
    for _ in range(repeat):
        for src in srcs:
            oracle[src].append(_child(src, ORACLE_CHILD, [CONFIG]))
            memory[src].append(_child(src, MEMORY_CHILD, [CONFIG]))
    return [_summary(imports[src], commands[src], oracle[src], memory[src]) for src in srcs]


def _summary(imports, commands, oracle, memory):
    return {
        "import_s_min": min(r["seconds"] for r in imports),
        "import_s_all": [round(r["seconds"], 4) for r in imports],
        "scipy_after_import": imports[0]["scipy"],
        "commands": commands,
        "oracle": {"first_s_min": min(r["first_s"] for r in oracle),
                   "second_s_min": min(r["second_s"] for r in oracle),
                   "compare_s_min": min(r["compare_s"] for r in oracle),
                   "m0_s_min": min(r["m0_s"] for r in oracle),
                   "peak_rss_mb_max": max(r["peak_rss_mb"] for r in memory),
                   "peak_rss_mb_all": [round(r["peak_rss_mb"], 2) for r in memory],
                   "tracemalloc_peak_mb_max": max(r["tracemalloc_peak_mb"] for r in memory),
                   "kept_shape": memory[0]["psi_shape"],
                   "scipy_after": oracle[0]["scipy"],
                   "psi_shape": oracle[0]["psi_shape"],
                   "psi_sha256": sorted({r["psi_sha256"] for r in oracle}),
                   "compare_sha256": sorted({r["compare_sha256"] for r in oracle}),
                   "m0_psi_sha256": sorted({r["m0_psi_sha256"] for r in oracle}),
                   "m0_compare_sha256": sorted({r["m0_compare_sha256"] for r in oracle})},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True,
                    help="directory holding the kgcavity package (repeatable)")
    ap.add_argument("--repeat", type=int, default=7,
                    help="fresh processes per timing (default 7)")
    ap.add_argument("--out", required=True,
                    help="result file, relative to the repository root")
    args = ap.parse_args(argv)

    trees, failed = [], False
    srcs = [os.path.abspath(src) for src in args.src]
    for label, src, res in zip(string.ascii_uppercase, srcs, measure(srcs, args.repeat)):
        res.update(label=label, source_sha256=_tree_sha(src))
        trees.append(res)
        print("%s import kgcavity.cli: %.3f s (min of %d), %d scipy modules"
              % (label, res["import_s_min"], args.repeat, res["scipy_after_import"]["count"]))
        for name, cmd in res["commands"].items():
            print("    %-12s exit %d, %d scipy modules" % (name, cmd["exit"], cmd["scipy"]["count"]))
            failed |= cmd["exit"] != 0
        o = res["oracle"]
        print("    oracle 512/4: first %.3f s, second %.3f s, compare %.3f s, "
              "m = 0 %.3f s, %d scipy modules, psi %s"
              % (o["first_s_min"], o["second_s_min"], o["compare_s_min"], o["m0_s_min"],
                 o["scipy_after"]["count"], o["psi_sha256"][0][:16]))
        print("    oracle m = 0 solve and compare: peak RSS %.2f MB, solve's tracemalloc "
              "peak %.2f MB, %s rows kept"
              % (o["peak_rss_mb_max"], o["tracemalloc_peak_mb_max"], o["kept_shape"][0]))

    identical = {}
    for what in ("psi", "compare", "m0_psi", "m0_compare"):
        identical[what] = len({sha for tree in trees
                               for sha in tree["oracle"][what + "_sha256"]}) == 1
        name = what.replace("m0_", "") + (" at m = 0" if what.startswith("m0_") else "")
        if not identical[what]:
            print("oracle %s differs across trees or runs" % name)
            failed = True
        elif len(trees) > 1:
            print("oracle %s bit-identical across trees" % name)

    import numpy
    import scipy
    doc = {
        "host": {"python": platform.python_version(), "numpy": numpy.__version__,
                 "scipy": scipy.__version__, "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "config": "demos/example.cfg",
        "repeat": args.repeat,
        "trees": trees,
        "oracle_psi_identical": identical["psi"],
        "oracle_compare_identical": identical["compare"],
        "oracle_m0_psi_identical": identical["m0_psi"],
        "oracle_m0_compare_identical": identical["m0_compare"],
    }
    with open(os.path.join(ROOT, args.out), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
