"""Time and count ``analyze_map`` on the motions of the ``scan`` workload.

For each of the 8 motions of the benchmark's scan grid (sinusoidal wall,
``beta = 0.14``, period 1, ``alpha`` from ``perfbench/workloads.py``) this
runs ``analyze_map(maps, 1e5, max_q=20)``, the call the scan makes per
point, and records

- its seconds (median of 3 runs without counters);
- the microseconds per scalar orbit step: a walk of 50 000 steps
  of ``orbit_translation`` from 0, median of 3 walks;
- the route that produced the rotation number: ``certified`` (a short
  orbit proposed p/q and a periodic orbit certified it), ``bracket`` (the
  1e5-step walk stopped once the orbit's Farey bracket on rho was narrower
  than 2T/n) or ``full`` (all 1e5 steps walked);
- each ``rotation_number`` call, with the steps it asked for and the steps
  it walked;
- the orbit steps walked (the ``n`` of every ``orbit_translation`` call,
  which walks all of them; the walk calls it once per chunk) and the
  scalar wall evaluations (``a_scalar`` calls) inside them, per step;
- each ``find_periodic_points`` call, with its ``p:q``, the points passed
  to ``F_and_dF`` inside it, the array wall evaluations (points through
  ``a`` and ``da``) those calls made per point, and its
  ``_g_and_multiplier`` calls;
- the points that missed the inverse's seed and went through its Newton
  fallback (``CharacteristicMaps._newton``), on arrays and on floats alike:
  a scalar miss is one call on a one-point array;

all counted in one further run, on maps built from a counting subclass of
``sinusoidal_profile`` (built before the maps, since they may bind its
scalar evaluator at construction);
- for each motion whose analysis is ``ok``, the seconds (median of 3) of
  ``MasslessProfile.energy_series`` on the samples the scan takes there
  (``scan.simulate``): the data and the ``fit.samples_per_window`` and
  ``scan.sim_periods`` of the benchmark's ``scan`` config at seed 1.

Run from the repository root; ``--src`` picks the ``kgcavity`` source tree
to measure, so the same script measures an older checkout too:

    python bench/orbits.py --label change --out /tmp/orbits.json
    python bench/orbits.py --label parent --src /path/to/old/checkout/src --out /tmp/orbits.json

Each run replaces its label's entry in the ``--out`` file and keeps the
others; ``--out`` has no default so that a run never overwrites a
checked-in record (``BENCH_16.json``, ``BENCH_23.json`` and ``BENCH_25.json`` were written by this script).  (``BENCH_5.json`` was written by an
earlier version of this script, which timed ``rotation_number`` and
``find_periodic_points`` on their own.)
"""

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ITERATIONS = 100_000
ORBIT_STEPS = 50_000
MAX_Q = 20
REPEAT = 3


def measure(alpha, beta, cfg):
    from kgcavity import boundary, circle_dynamics as cd
    from kgcavity.characteristics_solver import build_initial_profile

    class CountingSinusoid(boundary.sinusoidal_profile):
        evals = 0
        array_points = 0

        def a_scalar(self, t):
            self.evals += 1
            return super().a_scalar(t)

        def a(self, t):
            self.array_points += np.size(t)
            return super().a(t)

        def da(self, t):
            self.array_points += np.size(t)
            return super().da(t)

    def build(profile):
        return boundary.CharacteristicMaps(boundary.validate_motion(profile, 1.0))

    maps = build(boundary.sinusoidal_profile(alpha, beta, 1.0))
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        analysis = cd.analyze_map(maps, ITERATIONS, max_q=MAX_Q)
        times.append(time.perf_counter() - t0)
    step_s = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        maps.orbit_translation(0.0, ORBIT_STEPS)
        step_s.append((time.perf_counter() - t0) / ORBIT_STEPS)

    energy_s = None
    if analysis.status == "ok":
        # the samples of experiment._scan_point's scan.simulate branch
        spw = cfg.int_("fit.samples_per_window")
        nwin = max(int(cfg.float_("scan.sim_periods")), 6)
        window = analysis.resonance[0] * maps.T
        samples = window / spw * np.arange(nwin * spw)
        profile = build_initial_profile(cfg.make_data(maps.a0), maps)
        energy = []
        for _ in range(REPEAT):
            t0 = time.perf_counter()
            profile.energy_series(samples)
            energy.append(time.perf_counter() - t0)
        energy_s = statistics.median(energy)

    prof = CountingSinusoid(alpha, beta, 1.0)
    maps = build(prof)
    steps, evals, points, wall_points, scans, walks = [0], [0], [0], [0], [], []
    g_calls, fallback = [0], [0, 0]
    orbit_translation, F_and_dF = maps.orbit_translation, maps.F_and_dF
    find, rotation_number = cd.find_periodic_points, cd.rotation_number
    g_and_multiplier = cd._g_and_multiplier
    newton = maps._newton

    def counting_orbit(x0, n):
        steps[0] += int(n)
        before = prof.evals
        try:
            return orbit_translation(x0, n)
        finally:
            evals[0] += prof.evals - before

    def counting_F(x):
        points[0] += np.size(x)
        before = prof.array_points
        try:
            return F_and_dF(x)
        finally:
            wall_points[0] += prof.array_points - before

    def counting_g(*args):
        g_calls[0] += 1
        return g_and_multiplier(*args)

    def counting_newton(y, *args):
        fallback[0] += 1
        fallback[1] += np.size(y)
        return newton(y, *args)

    def counting_find(maps_, p, q, *args, **kwargs):
        before = points[0], wall_points[0], g_calls[0]
        try:
            return find(maps_, p, q, *args, **kwargs)
        finally:
            n = points[0] - before[0]
            scans.append({"p": p, "q": q, "F_and_dF_points": n,
                          "F_and_dF_wall_evals_per_point":
                              (wall_points[0] - before[1]) / n if n else None,
                          "g_and_multiplier_calls": g_calls[0] - before[2]})

    def counting_rotation(maps_, iterations, *args, **kwargs):
        before = steps[0]
        try:
            return rotation_number(maps_, iterations, *args, **kwargs)
        finally:
            walks.append({"iterations": int(iterations), "steps": steps[0] - before})

    maps.orbit_translation, maps.F_and_dF = counting_orbit, counting_F
    maps._newton = counting_newton
    cd.find_periodic_points, cd.rotation_number = counting_find, counting_rotation
    cd._g_and_multiplier = counting_g
    try:
        counted = cd.analyze_map(maps, ITERATIONS, max_q=MAX_Q)
    finally:
        cd.find_periodic_points, cd.rotation_number = find, rotation_number
        cd._g_and_multiplier = g_and_multiplier
    assert counted.to_dict() == analysis.to_dict()

    if analysis.rotation_certified:
        route = "certified"
    elif any(w["iterations"] == ITERATIONS and w["steps"] < ITERATIONS for w in walks):
        route = "bracket"
    else:
        route = "full"
    return {"alpha": alpha, "analyze_map_s": statistics.median(times), "route": route,
            "orbit_step_us": 1e6 * statistics.median(step_s),
            "rotation_walks": walks,
            "rho": analysis.rotation_estimate, "resonance": analysis.resonance,
            "status": analysis.status, "orbit_steps": steps[0],
            "orbit_evals": evals[0],
            "orbit_evals_per_step": evals[0] / steps[0] if steps[0] else None,
            "find_periodic_points": scans,
            "newton_fallback_calls": fallback[0],
            "newton_fallback_points": fallback[1],
            "energy_series_s": energy_s}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="entry name, e.g. parent or change")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the kgcavity package (default: ./src)")
    ap.add_argument("--out", required=True,
                    help="result file, relative to the repository root")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    sys.path.insert(0, ROOT)
    from kgcavity.experiment import ExperimentConfig
    from perfbench.workloads import SCAN_ALPHAS, SCAN_BETA, config_text, generate

    with tempfile.TemporaryDirectory(prefix="kgcavity-orbits-") as tmp:
        path = os.path.join(tmp, "scan.cfg")
        with open(path, "w") as fh:
            fh.write(config_text(generate("scan", 1)["config"]))
        cfg = ExperimentConfig.from_file(path)
    rows = []
    for alpha in SCAN_ALPHAS:
        row = measure(alpha, SCAN_BETA, cfg)
        print(json.dumps(row), flush=True)
        rows.append(row)
    entry = {
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "repeat": REPEAT,
        "iterations": ITERATIONS,
        "orbit_steps_timed": ORBIT_STEPS,
        "max_q": MAX_Q,
        "motions": rows,
        "totals": {
            "analyze_map_s": sum(r["analyze_map_s"] for r in rows),
            "orbit_steps": sum(r["orbit_steps"] for r in rows),
            "orbit_evals": sum(r["orbit_evals"] for r in rows),
            "F_and_dF_points": sum(s["F_and_dF_points"] for r in rows
                                   for s in r["find_periodic_points"]),
            "g_and_multiplier_calls": sum(s["g_and_multiplier_calls"] for r in rows
                                          for s in r["find_periodic_points"]),
            "energy_series_s": sum(r["energy_series_s"] or 0.0 for r in rows),
        },
    }
    bench = {}
    out = os.path.join(ROOT, args.out)
    if os.path.exists(out):
        with open(out) as fh:
            bench = json.load(fh)
    bench[args.label] = entry
    with open(out, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
