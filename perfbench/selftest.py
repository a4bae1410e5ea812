"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

Smoke runs of every workload at tiny sizes check the result line, the metric
names and their units against BENCHMARK.json.  Doctored outputs check that
each output check fires.  The file is named so that the package's own test
run does not collect it.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _benchmark()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_run_without_program_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "scan", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_generated_inputs_are_valid_and_seeded():
    for name in workloads.WORKLOADS:
        specs = [workloads.generate(name, seed) for seed in range(20)]
        assert workloads.generate(name, 3) == specs[3]
        assert len({json.dumps(s["config"], sort_keys=True) for s in specs}) == 20


def test_invalid_inputs_are_refused():
    spec = workloads.generate("scan", 1)
    spec["config"]["data.center"] = 0.28     # support reaches past a(0) = 0.30
    with pytest.raises(ValueError):
        workloads.check_inputs(spec)
    spec = workloads.generate("simulate", 1)
    spec["config"]["boundary.beta"] = 0.2    # sup|a'| = 1.26
    with pytest.raises(ValueError):
        workloads.check_inputs(spec)


def test_times_are_scaled_to_the_reference_speed():
    ref = hostspeed.REFERENCE_S
    # the second run met a host at half speed: its loop and its body took twice as long
    samples = [{"wall_s": 3.0, "reference_s": [ref, 1.1 * ref, ref]},
               {"wall_s": 6.0, "reference_s": [2 * ref, 2 * ref, 9 * ref]},
               {"wall_s": 3.3, "reference_s": [1.1 * ref]}]
    assert run.at_reference_speed(samples, "wall_s") == pytest.approx(3.0)


def _row(param, status, **kw):
    row = {"param": param, "rho": None, "rho_err": None, "p": None, "q": None,
           "gamma": None, "gamma_fit": None, "status": status}
    row.update(kw)
    return row


def test_scan_check_counts_rows_outside_the_analysis_outcomes():
    T, n = 1.0, 1000
    good = _row(0.5, "ok", rho=1.0, rho_err=T / n, p=1, q=1, gamma=2.0, gamma_fit=2.01)
    rows = [good,
            _row(0.6, "no_resonance", rho=1.1234, rho_err=T / n),
            _row(0.7, "AmbiguousResonance: fractions [(1, 2), (3, 5)]"),
            _row(0.8, "NeutralPoint at x=0.1")]
    out = checks.check_scan(rows, 4, T, n)
    assert (out.attempted, out.failed, out.problems) == (4, 0, [])

    doctored = rows + [_row(0.9, "sim:ValueError: energies must be nonnegative"),
                       _row(1.0, "TypeError: unsupported operand")]
    out = checks.check_scan(doctored, 6, T, n)
    assert out.failed == 2 and len(out.problems) == 2

    off_bar = dict(good, rho=1.0 + 2 * T / n)
    assert checks.check_scan([off_bar], 1, T, n).problems


def test_measure_M_check_fires_above_2_a_max_T():
    a_max, times = 0.512, [1.0, 2.0]
    assert not checks.check_measure_M(times, [0.9, 1.9], a_max).problems
    doctored = [0.9, 2.0 * a_max * 2.0 + 1e-6]
    assert len(checks.check_measure_M(times, doctored, a_max).problems) == 1


def test_digest_check_fires_on_a_mismatch():
    same = {"scan.csv": "ab12"}
    assert not checks.check_digests([same, dict(same), dict(same)])
    assert checks.check_digests([same, same, {"scan.csv": "ab13"}])
    assert checks.check_digests([same, {}])


def test_simulate_and_verify_failures_are_counted():
    report = {"map_analysis": {"status": "ok", "gamma": 0.15}, "errors": [],
              "masses": [{"m": 0.0, "gamma_fit": 0.14, "solver": "massless-exact"},
                         {"m": 0.27, "error": "NotConverged: change 1e-3 > tol"}]}
    out = checks.check_simulate(report)
    assert (out.attempted, out.failed) == (2, 1)

    lines = ["PASS motion_invariants        ok",
             "FAIL geometry_measure         max(...) = 1e-3",
             "FAIL massive_bounds           ERROR TypeError: boom"]
    out = checks.check_verify(False, lines)
    assert (out.attempted, out.failed) == (3, 2)
