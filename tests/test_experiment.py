import json
import math
import os

import numpy as np
import pytest

from kgcavity import cli, experiment, oracle_fdm
from kgcavity.experiment import (ConfigError, ExperimentConfig,
                                 NonpositiveEnergy, TooFewWindows,
                                 fit_exponent)


def _cfg(tmp_path, **over):
    vals = {
        "boundary.profile": "sinusoidal",
        "boundary.alpha": "0.5",
        "boundary.beta": "0.05",
        "boundary.period": "1.0",
        "mass.values": "0.0",
        "data.family": "bump",
        "data.center": "0.25",
        "data.width": "0.1",
        "data.amplitude": "1.0",
        "data.direction": "right",
        "grid.resolution": "128",
        "grid.horizon_periods": "10",
        "analysis.rotation_iterations": "20000",
        "fit.burn_in_windows": "2",
        "output.dir": str(tmp_path / "out"),
        "seed": "7",
    }
    vals.update({k: str(v) for k, v in over.items()})
    return ExperimentConfig(vals)


def _write_cfg(tmp_path, name="cfg.txt", **over):
    cfg = _cfg(tmp_path, **over)
    path = tmp_path / name
    with open(path, "w") as fh:
        for k, v in cfg.values.items():
            fh.write("%s = %s\n" % (k, v))
    return str(path)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_config_unknown_key():
    with pytest.raises(ConfigError):
        ExperimentConfig({"nonsense.key": "1"})


def test_config_file_roundtrip(tmp_path):
    path = _write_cfg(tmp_path, **{"boundary.beta": 0.02})
    cfg = ExperimentConfig.from_file(path)
    assert cfg.float_("boundary.beta") == 0.02


def test_config_bad_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("boundary.alpha 0.5\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(str(path))


def test_config_horizon_validation(tmp_path):
    cfg = _cfg(tmp_path, **{"grid.horizon_periods": 1})
    with pytest.raises(ConfigError):
        cfg.validate()


# ---------------------------------------------------------------------------
# exponent fitting
# ---------------------------------------------------------------------------

def test_fit_exact_exponential():
    t = np.linspace(0.0, 10.0, 321)[:-1]
    gamma, hw, _ = fit_exponent(t, np.exp(0.3 * t), window=1.0)
    assert gamma == pytest.approx(0.3, abs=1e-10)
    assert hw <= 1e-12


def test_fit_constant_energy():
    t = np.linspace(0.0, 10.0, 321)[:-1]
    gamma, hw, _ = fit_exponent(t, np.full_like(t, 7.0), window=1.0)
    assert gamma == pytest.approx(0.0, abs=1e-14)


def test_fit_modulated_exponential():
    # e^{0.3 t} (2 + sin 2 pi t) with window 1: window averages are exactly
    # proportional to e^{0.3 k}, so the fitted slope is exactly 0.3
    t = (1.0 / 64) * np.arange(64 * 12)
    E = np.exp(0.3 * t) * (2.0 + np.sin(2 * np.pi * t))
    gamma, hw, _ = fit_exponent(t, E, window=1.0)
    assert gamma == pytest.approx(0.3, abs=1e-6)


def test_fit_too_few_windows():
    t = np.linspace(0.0, 3.0, 97)[:-1]
    with pytest.raises(TooFewWindows):
        fit_exponent(t, np.exp(t), window=1.0)


def test_fit_nonpositive_energy():
    t = np.linspace(0.0, 8.0, 257)[:-1]
    E = np.exp(t)
    E[32:64] = -1.0            # poison one full window
    with pytest.raises(NonpositiveEnergy):
        fit_exponent(t, E, window=1.0)


# ---------------------------------------------------------------------------
# run_experiment / scan
# ---------------------------------------------------------------------------

def test_run_experiment_constant_wall(tmp_path):
    # rigid map: degenerate (every point periodic), gamma absent, energy flat
    cfg = _cfg(tmp_path, **{"boundary.profile": "constant",
                            "boundary.alpha": "0.5",
                            "data.center": "0.25", "data.width": "0.1",
                            "grid.horizon_periods": "8"})
    report = experiment.run_experiment(cfg)
    assert report["map_analysis"]["status"] == "DegenerateMap"
    assert report["map_analysis"]["gamma"] is None
    entry = report["masses"][0]
    assert entry["gamma_fit"] == pytest.approx(0.0, abs=1e-9)
    assert os.path.exists(entry["energy_csv"])
    with open(entry["energy_csv"]) as fh:
        assert fh.readline().strip() == "t,E,E_mass_share,E_window_avg"


def test_run_experiment_resonant_massless(tmp_path):
    cfg = _cfg(tmp_path, **{"grid.horizon_periods": "14"})
    report = experiment.run_experiment(cfg)
    assert not report["errors"]
    ma = report["map_analysis"]
    assert ma["resonance"] == {"p": 1, "q": 1}
    entry = report["masses"][0]
    gamma = ma["gamma"]
    assert abs(entry["gamma_fit"] - gamma) / gamma <= 0.05
    assert abs(entry["sandwich"]["trend_slope"]) <= 0.05 * gamma
    assert report["hypothesis_J_norm"] > 0.0
    assert os.path.exists(os.path.join(cfg.str_("output.dir"), "report.json"))


def test_run_experiment_small_mass(tmp_path):
    cfg = _cfg(tmp_path, **{"mass.values": "0.0, 0.3",
                            "grid.horizon_periods": "8",
                            "grid.resolution": "128"})
    report = experiment.run_experiment(cfg)
    assert not report["errors"]
    massive = report["masses"][1]
    assert massive["solver"] == "picard"
    assert massive["picard_bound_ok"]
    assert massive["field_bound_ratio"] <= 1.1


def test_scan_rows_and_degenerate(tmp_path):
    cfg = _cfg(tmp_path, **{"scan.parameter": "boundary.beta",
                            "scan.values": "0.0:0.03:4",
                            "analysis.rotation_iterations": "20000"})
    rows = experiment.scan(cfg)
    assert len(rows) == 4
    assert rows[0]["status"] == "DegenerateMap"
    oks = [r for r in rows if r["status"] == "ok"]
    assert len(oks) == 3
    # numeric continuity of gamma along the tongue
    gammas = [r["gamma"] for r in oks]
    diffs = np.abs(np.diff(gammas))
    assert np.all(diffs <= 0.2)
    path = os.path.join(cfg.str_("output.dir"), "scan.csv")
    with open(path) as fh:
        assert fh.readline().strip() == "param,rho,rho_err,p,q,gamma,gamma_fit,status"


def test_scan_empty_range_header_only(tmp_path):
    cfg = _cfg(tmp_path, **{"scan.values": ""})
    rows = experiment.scan(cfg)
    assert rows == []
    path = os.path.join(cfg.str_("output.dir"), "scan.csv")
    with open(path) as fh:
        content = fh.read()
    assert content == "param,rho,rho_err,p,q,gamma,gamma_fit,status\n"


def test_scan_deterministic_across_workers(tmp_path):
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    cfg1 = _cfg(tmp_path, **{"scan.values": "0.01:0.04:4", "output.dir": out1,
                             "analysis.rotation_iterations": "5000"})
    cfg2 = _cfg(tmp_path, **{"scan.values": "0.01:0.04:4", "output.dir": out2,
                             "analysis.rotation_iterations": "5000"})
    experiment.scan(cfg1, workers=1)
    experiment.scan(cfg2, workers=4)
    b1 = open(os.path.join(out1, "scan.csv"), "rb").read()
    b2 = open(os.path.join(out2, "scan.csv"), "rb").read()
    assert b1 == b2


def test_scan_with_simulation(tmp_path):
    cfg = _cfg(tmp_path, **{"scan.values": "0.03,0.05",
                            "scan.simulate": "true",
                            "scan.sim_periods": "12",
                            "analysis.rotation_iterations": "20000"})
    rows = experiment.scan(cfg)
    for r in rows:
        assert r["status"] == "ok"
        # smoke-level fit over a short horizon: generous tolerance
        assert abs(r["gamma_fit"] - r["gamma"]) / r["gamma"] <= 0.15


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_missing_config(capsys):
    rc = cli.main(["simulate", "/nonexistent/cfg.txt"])
    assert rc == 1


def test_cli_analyze_map(tmp_path, capsys):
    path = _write_cfg(tmp_path)
    rc = cli.main(["analyze-map", path])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["resonance"] == {"p": 1, "q": 1}


def test_cli_verify_deterministic_across_workers(tmp_path):
    p1 = _write_cfg(tmp_path, "c1.txt", **{"output.dir": tmp_path / "v1",
                                           "grid.horizon_periods": "4"})
    p2 = _write_cfg(tmp_path, "c2.txt", **{"output.dir": tmp_path / "v2",
                                           "grid.horizon_periods": "4"})
    rc1 = cli.main(["verify", p1, "-w", "1"])
    rc2 = cli.main(["verify", p2, "-w", "8"])
    assert rc1 == 0 and rc2 == 0
    b1 = open(tmp_path / "v1" / "verify.txt", "rb").read()
    b2 = open(tmp_path / "v2" / "verify.txt", "rb").read()
    assert b1 == b2


def test_cli_scan_exit_code(tmp_path):
    path = _write_cfg(tmp_path, **{"scan.values": "0.01,0.02",
                                   "analysis.rotation_iterations": "5000"})
    assert cli.main(["scan", path]) == 0


def test_cli_simulate_numerical_failure_exit(tmp_path, capsys):
    # starving the picard iteration forces NotConverged -> exit code 2
    path = _write_cfg(tmp_path, **{"mass.values": "0.4",
                                   "grid.horizon_periods": "4",
                                   "grid.resolution": "64",
                                   "picard.n_max": "1"})
    assert cli.main(["simulate", path]) == 2


def _example_cfg(tmp_path, **over):
    """demos/example.cfg, writing into tmp_path, as a config and a file."""
    demo = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "example.cfg")
    vals = dict(ExperimentConfig.from_file(demo).values,
                **{"output.dir": str(tmp_path / "out")}, **over)
    path = tmp_path / "example.cfg"
    path.write_text("".join("%s = %s\n" % kv for kv in vals.items()))
    return ExperimentConfig(vals), str(path)


def test_samples_finer_than_lattice_are_a_config_error(tmp_path, monkeypatch, capsys):
    # 1024 samples per period lie 0.00098 apart, closer than the lattice step
    # a(0)/256 = 0.00195, so two would share an anti-diagonal: the massive leg
    # is refused before its march, and the CLI exits 1
    calls = []
    monkeypatch.setattr(experiment.kleingordon, "picard_energy_series",
                        lambda *a, **k: calls.append(a))
    cfg, path = _example_cfg(tmp_path, **{"fit.samples_per_window": "1024"})
    with pytest.raises(ConfigError, match="fit.samples_per_window.*grid.resolution"):
        experiment.run_experiment(cfg)
    assert cli.main(["simulate", path]) == 1
    assert "config error: fit.samples_per_window" in capsys.readouterr().err
    assert calls == []
    # the massless leg samples the exact field, at any spacing
    cfg, _ = _example_cfg(tmp_path, **{"fit.samples_per_window": "1024",
                                       "mass.values": "0.0"})
    report = experiment.run_experiment(cfg)
    assert not report["errors"] and len(report["masses"]) == 1


def test_simulate_outputs_byte_identical(tmp_path):
    reports = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        cfg = _cfg(tmp_path, **{"output.dir": out,
                                "grid.horizon_periods": "8",
                                "analysis.rotation_iterations": "5000"})
        experiment.run_experiment(cfg)
        blob = open(os.path.join(out, "report.json"), "rb").read()
        # the output path differs between the two runs; normalize it away
        reports.append(blob.replace(str(out).encode(), b"OUT"))
    assert reports[0] == reports[1]
    e1 = open(tmp_path / "r1" / "energy_m0.0.csv", "rb").read()
    e2 = open(tmp_path / "r2" / "energy_m0.0.csv", "rb").read()
    assert e1 == e2


def test_cli_verify_failure_exit_code(tmp_path):
    # eigenmode data violates the corner conditions on a moving wall, so the
    # profile check fails and verify exits with code 3
    path = _write_cfg(tmp_path, **{"data.family": "eigenmode",
                                   "grid.horizon_periods": "4"})
    assert cli.main(["verify", path, "-w", "1"]) == 3


@pytest.mark.parametrize("command, over", [
    ("simulate", {"mass.values": "0.0, abc"}),
    ("simulate", {"boundary.profile": "fourier", "boundary.cos": "0.01, x"}),
    ("simulate", {"analysis.rotation_iterations": "inf"}),
    ("scan", {"scan.values": "0.0:0.03"}),
    ("scan", {"scan.values": "0.01, abc"}),
    ("simulate", {"grid.horizon_periods": "inf"}),
    ("simulate", {"picard.tol": "nan"}),
    ("simulate", {"boundary.alpha": "nan"}),
    ("simulate", {"mass.values": "0.0, nan"}),
    ("simulate", {"mass.values": "inf"}),
    ("scan", {"scan.values": "0.3, nan"}),
    ("scan", {"scan.values": "0.3:inf:3"}),
])
def test_cli_malformed_value_is_config_error(tmp_path, capsys, command, over):
    path = _write_cfg(tmp_path, **over)
    assert cli.main([command, path]) == 1
    assert "config error: key " in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("grid.resolution", "0"), ("grid.resolution", "-8"),
    ("fit.samples_per_window", "0"), ("picard.n_max", "0"),
    ("analysis.max_q", "0"), ("analysis.rotation_iterations", "0"),
])
def test_cli_count_below_one_is_config_error(tmp_path, capsys, key, value):
    # a count below 1 is a config error (exit 1), not a numerical failure
    path = _write_cfg(tmp_path, **{key: value})
    assert cli.main(["simulate", path]) == 1
    assert "config error: %s must be >= 1" % key in capsys.readouterr().err


@pytest.mark.parametrize("param", [
    "boundary.alfa",     # misspelled: the motion would ignore it
    "mass.values",       # not a boundary key
    "boundary.mean",     # read only by a fourier wall, and this one is sinusoidal
])
def test_cli_scan_parameter_not_read_by_wall(tmp_path, param):
    path = _write_cfg(tmp_path, **{"scan.parameter": param,
                                   "scan.values": "0.3, 0.6"})
    assert cli.main(["scan", path]) == 1
    assert not os.path.exists(tmp_path / "out" / "scan.csv")


def test_cli_scan_point_failure_in_status(tmp_path):
    # alpha = 0.05 puts the wall through zero: that row is rejected, the scan
    # still succeeds and records the failure in the status column
    path = _write_cfg(tmp_path, **{"scan.parameter": "boundary.alpha",
                                   "scan.values": "0.05, 0.5",
                                   "analysis.rotation_iterations": "5000"})
    assert cli.main(["scan", path]) == 0
    with open(tmp_path / "out" / "scan.csv") as fh:
        rows = fh.read().splitlines()[1:]
    assert rows[0].split(",")[-1].startswith("RejectedMotion: ")
    assert rows[1].split(",")[-1] == "ok"


def test_removed_config_keys_are_unknown():
    for key in ("analysis.scan_samples", "fit.window"):
        with pytest.raises(ConfigError):
            ExperimentConfig({key: "1"})


def test_run_experiment_oracle_discrepancy_falls(tmp_path):
    sup = {}
    for n_y in (256, 512):
        cfg = _cfg(tmp_path, **{"oracle.enabled": "true", "oracle.n_y": n_y})
        report = experiment.run_experiment(cfg)
        assert not report["errors"]
        with open(tmp_path / "out" / "report.json") as fh:
            assert json.load(fh)["oracle"] == report["oracle"]
        oracle = report["oracle"]
        assert oracle["n_y"] == n_y and oracle["horizon"] == 3.0
        sup[n_y] = oracle["sup_discrepancy"]
    assert sup[512] <= 0.5 * sup[256]


def test_run_experiment_oracle_records_only_its_own_failures(tmp_path, monkeypatch):
    # Unstable and NoOverlap go to the report; any other error is a fault
    cfg = _cfg(tmp_path, **{"oracle.enabled": "true", "grid.resolution": 64,
                            "grid.horizon_periods": 2})

    def fail(kind):
        def solve(*args, **kwargs):
            raise kind("injected")
        return solve

    monkeypatch.setattr(experiment.oracle_fdm, "solve_oracle", fail(oracle_fdm.Unstable))
    report = experiment.run_experiment(cfg)
    assert report["oracle"] is None
    assert report["errors"][-1] == "oracle: Unstable: injected"
    monkeypatch.setattr(experiment.oracle_fdm, "solve_oracle", fail(TypeError))
    with pytest.raises(TypeError, match="injected"):
        experiment.run_experiment(cfg)


def test_oracle_n_y_below_64_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="oracle.n_y"):
        _cfg(tmp_path, **{"oracle.n_y": 32}).validate()
    _cfg(tmp_path, **{"oracle.n_y": 64}).validate()


def test_verify_builds_motion_and_maps_once(tmp_path, monkeypatch):
    # with one worker every check runs in one group, on one motion and one
    # set of maps
    built = []

    def counting(fn):
        def wrapper(*args):
            built.append(fn.__name__)
            return fn(*args)
        return wrapper

    for name in ("make_motion", "CharacteristicMaps"):
        monkeypatch.setattr(experiment.boundary, name,
                            counting(getattr(experiment.boundary, name)))
    ok, lines = experiment.run_verify(_cfg(tmp_path), workers=1)
    assert ok and len(lines) == len(experiment._VERIFY_CHECKS)
    assert sorted(built) == ["CharacteristicMaps", "make_motion"]


def test_verify_random_streams_pinned(tmp_path):
    # profile_traces and energy_sandwich_steps each draw from a fresh
    # generator of stream 2; sharing one would move t1 and t2
    ok, lines = experiment.run_verify(_cfg(tmp_path))
    with open(tmp_path / "out" / "verify.txt") as fh:
        assert fh.read().splitlines()[:-1] == lines
    line = next(ln for ln in lines if "energy_sandwich_steps" in ln)
    assert line.endswith("(t1=1.195, t2=1.596)")
