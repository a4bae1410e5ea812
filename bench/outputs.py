"""Compare the CLI outputs of one or more source trees on ``demos/example.cfg``.

For each tree this runs, each in a fresh scratch directory holding a copy of
``demos/example.cfg`` (so ``output.dir = out`` lands there):

    simulate, scan -w 1, scan -w 2, verify -w 1, verify -w 2

and records each command's exit code and wall seconds (interpreter start-up
included) and the sha256 of each output file.  ``report.json`` is hashed
after the scratch directory's path is replaced by ``<RUN>``.

Run from the repository root; ``--src`` names a directory holding the
``kgcavity`` package and may be repeated, so a parent checkout can be set
against the working tree:

    python bench/outputs.py --src src --out /tmp/outputs.json
    python bench/outputs.py --src /path/to/parent/src --src src --out /tmp/outputs.json

Trees are labelled A, B, ... in ``--src`` order; each entry carries the
sha256 of its ``kgcavity/*.py`` sources.  Results go to ``--out``, which
has no default so that a comparison run never overwrites a checked-in
record (``BENCH_8.json`` was written by this script).  The exit code is 1 when ``-w 1`` and ``-w 2``
disagree within a tree or a command exits nonzero; differences between
trees are printed and recorded, not enforced.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import string
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = os.path.join(ROOT, "demos", "example.cfg")
COMMANDS = (
    ("simulate", ["simulate"], ("energy_m0.0.csv", "energy_m0.27.csv", "report.json")),
    ("scan -w 1", ["scan", "-w", "1"], ("scan.csv",)),
    ("scan -w 2", ["scan", "-w", "2"], ("scan.csv",)),
    ("verify -w 1", ["verify", "-w", "1"], ("verify.txt",)),
    ("verify -w 2", ["verify", "-w", "2"], ("verify.txt",)),
)
# output files that must agree between the two worker counts of one tree
WORKER_PAIRS = (("scan -w 1", "scan -w 2", "scan.csv"),
                ("verify -w 1", "verify -w 2", "verify.txt"))


def _sha(blob):
    return hashlib.sha256(blob).hexdigest()


def _tree_sha(src):
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "kgcavity", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_command(src, argv, files):
    """One CLI call in a fresh directory: (exit code, seconds, {file: sha})."""
    with tempfile.TemporaryDirectory(prefix="kgcavity-outputs-") as run:
        shutil.copy(CONFIG, os.path.join(run, "example.cfg"))
        env = dict(os.environ, PYTHONPATH=src)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "kgcavity.cli", argv[0], "example.cfg", *argv[1:]],
            cwd=run, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        seconds = time.perf_counter() - t0
        shas = {}
        for name in files:
            path = os.path.join(run, "out", name)
            if not os.path.exists(path):
                shas[name] = None
                continue
            with open(path, "rb") as fh:
                blob = fh.read()
            if name == "report.json":
                blob = blob.replace(run.encode(), b"<RUN>")
            shas[name] = _sha(blob)
        if proc.returncode:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
    return proc.returncode, seconds, shas


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True,
                    help="directory holding the kgcavity package (repeatable)")
    ap.add_argument("--out", required=True,
                    help="result file, relative to the repository root")
    args = ap.parse_args(argv)

    trees, failed = [], False
    for label, src in zip(string.ascii_uppercase, args.src):
        src = os.path.abspath(src)
        runs = {}
        for name, cmd, files in COMMANDS:
            rc, seconds, shas = run_command(src, cmd, files)
            runs[name] = {"exit": rc, "seconds": round(seconds, 3), "sha256": shas}
            print("%s %-12s exit %d %6.2f s" % (label, name, rc, seconds), flush=True)
            for f, sha in shas.items():
                print("    %-18s %s" % (f, sha))
            failed |= rc != 0
        mismatch = [f for a, b, f in WORKER_PAIRS
                    if runs[a]["sha256"][f] is None
                    or runs[a]["sha256"][f] != runs[b]["sha256"][f]]
        for f in mismatch:
            print("%s: %s differs between -w 1 and -w 2" % (label, f))
        failed |= bool(mismatch)
        trees.append({"label": label, "source_sha256": _tree_sha(src),
                      "runs": runs, "worker_mismatch": mismatch})

    differences = []
    first = trees[0]
    for tree in trees[1:]:
        for name, _, files in COMMANDS:
            for f in files:
                if tree["runs"][name]["sha256"][f] != first["runs"][name]["sha256"][f]:
                    differences.append("%s vs %s: %s %s" % (
                        first["label"], tree["label"], name, f))
    for line in differences:
        print("differs:", line)
    if len(trees) > 1 and not differences:
        print("all output files identical across trees")

    import numpy
    doc = {
        "host": {"python": platform.python_version(), "numpy": numpy.__version__,
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "config": "demos/example.cfg",
        "trees": trees,
        "tree_differences": differences,
    }
    with open(os.path.join(ROOT, args.out), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
