"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Shared expensive artifacts (the static eigenmode runs, the scan-discovered
resonant motion and its massless/massive runs) are session fixtures reused
across criteria.
"""

import math
import time

import numpy as np
import pytest

from kgcavity import boundary, cauchy, circle_dynamics as cd
from kgcavity import cli, experiment, kleingordon as kg, oracle_fdm as orc
from kgcavity.characteristics_solver import build_initial_profile
from kgcavity.experiment import ExperimentConfig, fit_exponent, _sandwich

from conftest import random_validated_motions


def _report(num, name, ok, detail):
    print("ACCEPTANCE %d (%s): %s - %s" % (num, name, "PASS" if ok else "FAIL", detail))
    return ok


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def eigenmode_runs(static_maps):
    """Static-cavity massive eigenmode runs at resolution 2^10, 5 periods.

    The stopping tolerance 1e-7 keeps the iteration error three orders
    below the 1e-4 criterion while staying inside the runtime cap.
    """
    data = cauchy.make_eigenmode(1.0, 1, 1.0)
    runs = {}
    t0 = time.perf_counter()
    for m in (0.5, 1.0):
        om = math.sqrt(math.pi**2 + m * m)
        t_end = 5 * 2 * math.pi / om
        fg = kg.picard_solve(data, static_maps, m=m, resolution=1024,
                             t_max=t_end + 0.05, tol=1e-7)
        runs[m] = (fg, om, t_end)
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="session")
def discovered_motion(tmp_path_factory):
    """Resonant motion found by the scan, with an attractor of multiplier
    <= 0.9.

    Among the admissible scan rows the pick targets multiplier ~0.86: the
    slice-difference energies of the massive leg need the e^{-gamma t}-
    compressed features to stay a few cells wide over >= 20 periods (see the
    README, Install and test), which bounds gamma * horizon.
    """
    out = tmp_path_factory.mktemp("scan")
    cfg = ExperimentConfig({
        "boundary.profile": "sinusoidal",
        "boundary.alpha": "0.5",
        "boundary.period": "1.0",
        "scan.parameter": "boundary.beta",
        "scan.values": "0.004:0.03:14",
        "analysis.rotation_iterations": "100000",
        "output.dir": str(out),
    })
    rows = experiment.scan(cfg)
    assert len((out / "scan.csv").read_text().splitlines()) == len(rows) + 1
    candidate = None
    for r in rows:
        if r["status"] != "ok" or r["gamma"] is None:
            continue
        mu = math.exp(-r["gamma"] * 1.0)
        if 0.84 <= mu <= 0.88:          # multiplier <= 0.9 with margin
            candidate = r
            break
    assert candidate is not None, "scan found no admissible resonant motion"
    beta = candidate["param"]
    motion = boundary.make_motion({"profile": "sinusoidal", "alpha": 0.5,
                                   "beta": beta, "period": 1.0})
    maps = boundary.CharacteristicMaps(motion)
    analysis = cd.analyze_map(maps, rotation_iterations=200_000)
    assert analysis.status == "ok"
    mu = math.exp(-analysis.gamma * analysis.resonance[0] * motion.period)
    assert mu <= 0.9
    data = cauchy.make_bump(maps.a0, 0.15, 0.10, 1.0, "right")
    return {"beta": beta, "maps": maps, "analysis": analysis, "data": data}


@pytest.fixture(scope="session")
def massive_growth_run(discovered_motion):
    """Picard run of the discovered motion at m = 0.5 sqrt(gamma/a_max)."""
    maps = discovered_motion["maps"]
    analysis = discovered_motion["analysis"]
    m = 0.5 * analysis.m0_heuristic
    t0 = time.perf_counter()
    fg = kg.picard_solve(discovered_motion["data"], maps, m,
                         resolution=768, t_max=20.3, tol=1e-9)
    fg.solve_runtime = time.perf_counter() - t0
    return fg


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_acceptance_1_massless_oracle_equivalence():
    """Criterion 1: sinusoidal(1, 0.02, 1) + right-moving bump, sup
    |phi_char - phi_oracle| over t in [0.2, 5]: 2nd-order joint refinement
    and <= 1e-3 at n_y = 1024.

    The motion is 2:1 resonant with an attractor, so the exact field is
    evaluated through deep pullbacks of a resonant F. Its gamma = 0.126 is
    small enough that the e^{-gamma t} focusing stays resolved on the
    oracle's 1024-point grid up to t = 5; the precondition below keeps it
    so. The strongly resonant sinusoidal(1, 0.1, 1) focuses below that grid
    by t = 5 and is cross-checked on its resolved horizon in
    tests/test_oracle.py.
    """
    motion = boundary.make_motion({"profile": "sinusoidal", "alpha": 1.0,
                                   "beta": 0.02, "period": 1.0})
    maps = boundary.CharacteristicMaps(motion)
    analysis = cd.analyze_map(maps)
    admissible = (analysis.status == "ok" and analysis.resonance == (2, 1)
                  and analysis.gamma * 5.0 <= 1.0)
    assert admissible, (
        "criterion 1 needs a 2:1-resonant motion with gamma * 5 <= 1 so that "
        "a 1024-point oracle resolves the field on [0, 5] (README, Install "
        "and test); got status %r, resonance %r, gamma %r"
        % (analysis.status, analysis.resonance, analysis.gamma))
    data = cauchy.make_bump(1.0, 0.5, 0.25, 1.0, "right")
    prof = build_initial_profile(data, maps)
    sups = {}
    t0 = time.perf_counter()
    for ny in (256, 512, 1024):
        run = orc.solve_oracle(data, motion, m=0.0, n_y=ny, t_max=5.0,
                               times=np.linspace(0.2, 5.0, 25))
        _, _, sups[ny] = orc.compare(run, prof)
    runtime = time.perf_counter() - t0
    r1 = sups[256] / sups[512]
    r2 = sups[512] / sups[1024]
    ok = (r1 >= 3.0) and (r2 >= 3.0) and (sups[1024] <= 1e-3) \
        and runtime <= 60.0
    detail = ("gamma = %.3f; sup[0.2,5] = %.2e/%.2e/%.2e (ratios %.2f, %.2f; "
              "need >= 3 and <= 1e-3; runtime %.1fs <= 60)"
              % (analysis.gamma, sups[256], sups[512], sups[1024], r1, r2,
                 runtime))
    _report(1, "massless oracle equivalence", ok, detail)
    assert ok, (
        "the exact massless field and the finite-difference oracle disagree "
        "on an oracle-resolved resonant motion: " + detail)


def test_acceptance_2_static_massive_eigenmode(eigenmode_runs):
    """Criterion 2: sin(pi x) cos(omega t) reproduced to 1e-4 at 2^10 over
    5 periods; energy = omega^2/4 within 0.1%."""
    ok = True
    details = []
    runs, runtime = eigenmode_runs
    for m, (fg, om, t_end) in runs.items():
        sup = 0.0
        for t in np.linspace(0.3, t_end - 0.05, 17):
            ta, xs, vals = fg.phi_slice(t)
            sup = max(sup, float(np.max(np.abs(
                vals - np.sin(np.pi * xs) * math.cos(om * ta)))))
        _, E, _ = fg.energy_series(np.linspace(0.3, t_end - 0.1, 9))
        edev = float(np.max(np.abs(E - om * om / 4))) / (om * om / 4)
        ok = ok and len(E) == 9 and sup <= 1e-4 and edev <= 1e-3
        details.append("m=%g: sup err %.2e (<=1e-4), energy dev %.2e (<=1e-3)"
                       % (m, sup, edev))
    ok = ok and runtime <= 60.0
    details.append("solve runtime %.0fs (<=60)" % runtime)
    assert _report(2, "static massive eigenmode", ok, "; ".join(details))


def test_acceptance_3_rotation_number_rigor():
    """Criterion 3: for 20 random motions the n-estimate brackets the
    10n-estimate within T/n, every time."""
    rng = np.random.default_rng(314159)
    worst = 0.0
    ok = True
    for motion in random_validated_motions(rng, 20):
        maps = boundary.CharacteristicMaps(motion)
        x0 = float(rng.uniform(-motion.a0, motion.a0))
        n = 400
        e1, h1 = cd.rotation_number(maps, n, x0)
        e2, _ = cd.rotation_number(maps, 10 * n, x0)
        ratio = abs(e1 - e2) / h1
        worst = max(worst, ratio)
        ok = ok and ratio <= 1.0
    assert _report(3, "rotation-number rigor", ok,
                   "max |rho_n - rho_10n| / (T/n) = %.3f over 20 motions" % worst)


def test_acceptance_4_main_theorem_desk_scale(discovered_motion,
                                              massive_growth_run):
    """Criterion 4: scan-discovered resonant motion, m = 0 and
    m = 0.5 sqrt(gamma/a_max): |gamma_fit - gamma|/gamma <= 0.05 and
    sandwich-residual trend slope <= 0.05 gamma, horizon >= 20 pT."""
    maps = discovered_motion["maps"]
    analysis = discovered_motion["analysis"]
    data = discovered_motion["data"]
    gamma = analysis.gamma
    p, q = analysis.resonance
    window = p * maps.T
    mu = math.exp(-gamma * window)

    # hypothesis of the theorem: data has positive norm on J
    normJ = cauchy.check_hypothesis_J(data, analysis)
    assert normJ > 0

    # massless leg: exact energies over 26 windows, 20 fitted
    prof = build_initial_profile(data, maps)
    times = window / 32.0 * np.arange(26 * 32)
    E0 = prof.energy_series(times)
    gfit0, _, info0 = fit_exponent(times, E0, window, burn_in_windows=6)
    sw0 = _sandwich(info0["window_times"], info0["window_averages"], gamma, 6)
    rel0 = abs(gfit0 - gamma) / gamma
    trend0 = abs(sw0["trend_slope"]) / gamma

    # massive leg at m = 0.5 m0: >= 20 pT
    fg = massive_growth_run
    want = window / 32.0 * (np.arange(20 * 32) + 0.5)
    ts, Em, _ = fg.energy_series(want)
    gfit1, _, info1 = fit_exponent(ts, Em, window, burn_in_windows=6)
    sw1 = _sandwich(info1["window_times"], info1["window_averages"], gamma, 6)
    rel1 = abs(gfit1 - gamma) / gamma
    trend1 = abs(sw1["trend_slope"]) / gamma

    ok = (rel0 <= 0.05 and trend0 <= 0.05 and rel1 <= 0.05
          and trend1 <= 0.05 and fg.solve_runtime <= 600.0)
    detail = ("beta=%g, mu=%.4f, gamma=%.5f; m=0: rel %.4f trend %.4f; "
              "m=%.4f: rel %.4f trend %.4f (all <= 0.05); solve %.0fs (<=600)"
              % (discovered_motion["beta"], mu, gamma, rel0, trend0,
                 fg.m, rel1, trend1, fg.solve_runtime))
    assert _report(4, "main theorem at desk scale", ok, detail)


def test_acceptance_5_picard_bound(eigenmode_runs, massive_growth_run):
    """Criterion 5: in every massive run the change sequence is dominated
    termwise by (a_max m^2 xi_max / 2)^n / n! * sup|eps^(0)|."""
    ok = True
    details = []
    runs = [fg for fg, _, _ in eigenmode_runs[0].values()] + [massive_growth_run]
    for fg in runs:
        ch, bd = fg.picard_bound()
        good = bool(np.all(ch[1:] <= bd[1:] + 1e-13 * fg.sup_phi0))
        ok = ok and good
        margin = float(np.min(bd[1:] / np.maximum(ch[1:], 1e-300)))
        details.append("m=%g: %d sweeps, min bound/change %.2f" %
                       (fg.m, len(ch), margin))
    assert _report(5, "picard factorial bound", ok, "; ".join(details))


def test_acceptance_6_field_bound(eigenmode_runs, massive_growth_run):
    """Criterion 6: sup |phi| e^{-a_max m^2 xi / 2} <= 1.1 sup|phi^(0)|."""
    ok = True
    details = []
    runs = [fg for fg, _, _ in eigenmode_runs[0].values()] + [massive_growth_run]
    for fg in runs:
        ratio = fg.field_bound_ratio()
        ok = ok and ratio <= 1.1
        details.append("m=%g: ratio %.4f" % (fg.m, ratio))
    assert _report(6, "field bound", ok, "; ".join(details))


def test_acceptance_7_geometry_invariants(discovered_motion, massive_growth_run):
    """Criterion 7: 10^4 random interior points satisfy measure(M) <=
    2 a_max T; reflection-identity residual within the quadrature budget."""
    maps = discovered_motion["maps"]
    rng = np.random.default_rng(2718)
    amax = maps.motion.a_max
    pts = []
    for _ in range(10_000):
        t = rng.uniform(0.01, 12.0)
        x = rng.uniform(0.0, float(maps.motion.a(t)))
        pts.append((t + x, t - x))
    xi, eta = np.array(pts).T
    worst = float(np.max(kg.measure_M(maps, xi, eta)
                         - 2.0 * amax * kg.time_of(xi, eta)))
    measure_ok = worst <= 1e-9

    fg = massive_growth_run
    res = kg.reflection_residual(fg, samples=250, seed=99)
    # budget: 10 x (picard tolerance + bilinear interpolation over Q at the
    # achieved lattice spacing); the interp term is measured at coarser
    # resolutions to scale ~3e-4 at delta = a0/256 and shrinks with delta
    budget = 10.0 * (fg.tol_abs + 2e-3 * max(fg.sup_phi(), 1.0))
    refl_ok = res <= budget
    ok = measure_ok and refl_ok
    assert _report(7, "geometry invariants", ok,
                   "max(measure(M) - 2 a_max T) = %.2e; reflection residual "
                   "%.2e <= budget %.2e" % (worst, res, budget))


def test_acceptance_8_lemma4_asymptotics(tuned_maps):
    """Criterion 8: with f == 1 the ratio int f^2/DF^{nq} dx over
    sum_i A_i mu_i^{-n} lies in [0.99, 1.01] by n = 15."""
    p, q = 1, 1
    pts = cd.find_periodic_points(tuned_maps, p, q)
    f = lambda x: np.ones_like(np.asarray(x, dtype=float))
    coeffs = cd.asymptotic_coefficients(tuned_maps, f, pts, p, q)
    a1 = [pt for pt in pts if pt.kind == "attracting"][0].x
    Fa1 = float(tuned_maps.F(a1))
    from scipy.integrate import simpson
    xs = np.linspace(a1, Fa1, 8193)
    _, mult = cd._g_and_multiplier(tuned_maps, xs, 0, 15 * q)
    lhs = float(simpson(1.0 / mult, x=xs))
    rhs = sum(A * pt.multiplier ** (-15) for pt, A in coeffs)
    ratio = lhs / rhs
    ok = 0.99 <= ratio <= 1.01
    assert _report(8, "weighted-integral asymptotics", ok,
                   "ratio at n=15: %.6f in [0.99, 1.01]" % ratio)


def test_acceptance_9_determinism(tmp_path):
    """Criterion 9: `verify` with 1 and 8 workers yields byte-identical
    outputs."""
    outs = {}
    for tag, workers in (("w1", 1), ("w8", 8)):
        outdir = tmp_path / tag
        cfgfile = tmp_path / ("cfg_%s.txt" % tag)
        cfgfile.write_text("\n".join([
            "boundary.profile = sinusoidal",
            "boundary.alpha = 0.5",
            "boundary.beta = 0.05",
            "boundary.period = 1.0",
            "data.family = bump",
            "data.center = 0.25",
            "data.width = 0.1",
            "data.amplitude = 1.0",
            "data.direction = right",
            "grid.horizon_periods = 4",
            "analysis.rotation_iterations = 20000",
            "output.dir = %s" % outdir,
            "seed = 7",
        ]) + "\n")
        rc = cli.main(["verify", str(cfgfile), "-w", str(workers)])
        assert rc == 0
        outs[tag] = (outdir / "verify.txt").read_bytes()
    ok = outs["w1"] == outs["w8"]
    assert _report(9, "verify determinism", ok,
                   "verify.txt byte-identical across 1 and 8 workers: %s" % ok)
