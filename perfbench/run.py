"""kgcavity benchmark: measure one workload for a fixed time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 40 --trace 0

Workloads are ``simulate``, ``scan`` and ``crosscheck`` (see workloads.py and
README.md).  The seed fixes the generated inputs.  Each measured run is a
fresh child process (child.py) with its own temporary output directory,
``workers = 1`` and the BLAS/OpenMP thread variables set to 1.  Runs repeat
until the next one would end after ``--seconds`` (at least three, or four
when tracing).

``--trace 0`` reports the end-to-end metrics: medians over the runs of
``wall_s`` (the timed steps of the workload body) and ``setup_s``, and the
highest ``peak_rss_mb`` of any run.  The two times are in seconds at the
reference speed of hostspeed.py: each run's times are scaled by how long a
fixed loop took between its steps, because neighbours on a shared host slow
everything by up to 1.7x for minutes (README.md has the measurements).
``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics of the traced ones, ``trace.overhead_frac``, and the raw medians of
the untraced ones (``host.*``).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every run's outputs are checked (checks.py), and their digests must agree
across the runs of one seed.  The generated config, all samples and the
spans of traced runs are kept under ``.perfbench/runs/`` in the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import hostspeed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
# every invocation ends within this, whatever the program does
TIME_LIMIT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class ChildFailed(RuntimeError):
    """A measured run ended without writing its result."""


def child_env(src):
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(spec, k, traced, record, work_root, env, timeout):
    """One measured run in a fresh process and a fresh working directory."""
    work = tempfile.mkdtemp(prefix="run%d-" % k, dir=work_root)
    try:
        cfg_path = os.path.join(work, "run.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(workloads.config_text(spec["config"]))
        spec_path = os.path.join(work, "spec.json")
        result_path = os.path.join(work, "result.json")
        with open(spec_path, "w") as fh:
            json.dump({**spec, "config_path": cfg_path, "trace": traced,
                       "spans_path": os.path.join(record, "spans-%d.json.gz" % k)}, fh)
        spawned = time.monotonic()
        proc = subprocess.run([sys.executable, CHILD, spec_path, result_path],
                              cwd=work, env=env, capture_output=True, text=True,
                              timeout=timeout)
        ended = time.monotonic()
        if proc.returncode != 0 or not os.path.exists(result_path):
            raise ChildFailed("run %d exited with %d:\n%s"
                              % (k, proc.returncode, proc.stderr[-4000:]))
        with open(result_path) as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_s"] = result["ready"] - spawned
    result["elapsed_s"] = ended - spawned
    result["traced"] = traced
    return result


def measure(spec, seconds, trace, record, work_root, env):
    """Repeat runs until the next one would end after ``seconds``."""
    min_runs = 4 if trace else 3
    start = time.monotonic()
    deadline = start + seconds
    samples = []
    while True:
        traced = bool(trace) and len(samples) % 2 == 1
        sample = run_child(spec, len(samples), traced, record, work_root, env,
                           timeout=max(start + TIME_LIMIT_S - time.monotonic(), 1.0))
        samples.append(sample)
        print("run %d%s: setup %.3f s, wall %.3f s (%s), reference loop %.1f ms, "
              "peak RSS %.0f MB, %d/%d failed"
              % (len(samples) - 1, " (traced)" if traced else "", sample["setup_s"],
                 sample["wall_s"], ", ".join("%s %.3f" % kv for kv in sample["steps"].items()),
                 1e3 * statistics.median(sample["reference_s"]), sample["peak_rss_mb"],
                 sample["failed"], sample["attempted"]), flush=True)
        if len(samples) >= min_runs and time.monotonic() + sample["elapsed_s"] > deadline:
            return samples


def at_reference_speed(samples, key):
    """Median over ``samples`` of ``key`` in seconds at the reference speed."""
    return statistics.median(s[key] * hostspeed.speed_factor(s["reference_s"])
                             for s in samples)


def summarize(samples, trace):
    """(metrics, problems, attempted, failed) over all runs."""
    problems = checks.check_digests([s["digests"] for s in samples])
    for s in samples:
        problems += [p for p in s["problems"] + s["errors"] if p not in problems]
    metrics = {}
    if trace:
        traced = [s for s in samples if s["traced"]]
        plain = [s for s in samples if not s["traced"]]
        for name, (_, unit) in traced[0]["layers"].items():
            value = statistics.median(s["layers"][name][0] for s in traced)
            metrics[name] = {"value": value, "unit": unit}
        overhead = (at_reference_speed(traced, "wall_s")
                    / at_reference_speed(plain, "wall_s") - 1.0)
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
        for name, key in (("host.wall_raw_s", "wall_s"), ("host.setup_raw_s", "setup_s")):
            metrics[name] = {"value": statistics.median(s[key] for s in plain),
                             "unit": "s"}
        metrics["host.reference_loop_s"] = {
            "value": statistics.median(r for s in plain for r in s["reference_s"]),
            "unit": "s"}
    else:
        for name in ("wall_s", "setup_s"):
            metrics[name] = {"value": at_reference_speed(samples, name), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": max(s["peak_rss_mb"] for s in samples),
                                  "unit": "MB"}
    return (metrics, problems, sum(s["attempted"] for s in samples),
            sum(s["failed"] for s in samples))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (smoke tests only)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "kgcavity", "__init__.py")):
        print("perfbench: no kgcavity sources under %s; run from the root of a "
              "checkout" % src, file=sys.stderr)
        return 2
    spec = workloads.generate(args.workload, args.seed, tiny=args.tiny)
    base = os.path.join(root, ".perfbench")
    record = os.path.join(base, "runs", "%s-seed%d-trace%d-%s-%d" % (
        args.workload, args.seed, args.trace, time.strftime("%Y%m%dT%H%M%S"),
        os.getpid()))
    work_root = os.path.join(base, "work")
    os.makedirs(record)
    os.makedirs(work_root, exist_ok=True)
    with open(os.path.join(record, "config.cfg"), "w") as fh:
        fh.write(workloads.config_text(spec["config"]))

    try:
        samples = measure(spec, args.seconds, args.trace, record, work_root,
                          child_env(src))
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    metrics, problems, attempted, failed = summarize(samples, args.trace)

    versions = samples[0]["versions"]
    env = {"nproc": len(os.sched_getaffinity(0)), **versions}
    with open(os.path.join(record, "run.json"), "w") as fh:
        json.dump({"args": vars(args), "env": env, "spec": spec, "samples": samples,
                   "metrics": metrics, "problems": problems}, fh, indent=1)
        fh.write("\n")

    print("env: " + ", ".join("%s %s" % kv for kv in env.items()))
    accuracy = samples[0]["accuracy"]
    for name in sorted(accuracy):
        print("accuracy %s: %.6g" % (name, accuracy[name]))
    for p in problems:
        print("PROBLEM: %s" % p)
    for name, m in metrics.items():
        print("%s: %r %s" % (name, m["value"], m["unit"]))
    print("record: %s" % os.path.relpath(record, root))
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
