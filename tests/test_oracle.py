import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import kgcavity
from kgcavity import boundary, cauchy, kleingordon as kg, oracle_fdm as orc
from kgcavity.characteristics_solver import build_initial_profile


def test_zero_data_identically_zero(static_maps):
    run = orc.solve_oracle(cauchy.zero_data(1.0), static_maps.motion, m=0.3,
                           n_y=64, t_max=1.0,
                           times=orc.step_times(static_maps.motion, 64, 1.0))
    assert len(run.psi) == len(run.ts)
    assert np.max(np.abs(run.psi)) == 0.0


def test_eigenmode_self_convergence(static_maps):
    # sup error vs the closed form drops ~4x per n_y doubling
    data = cauchy.make_eigenmode(1.0, 1, 1.0)
    om = math.sqrt(math.pi**2 + 0.25)
    errs = []
    probes = (1.0, 2.0, 2.9)
    for ny in (128, 256, 512):
        run = orc.solve_oracle(data, static_maps.motion, m=0.5, n_y=ny,
                               t_max=3.0, times=probes)
        worst = 0.0
        for t in probes:
            ta, xs, vals = run.slice_at(t)
            worst = max(worst, float(np.max(np.abs(
                vals - np.sin(np.pi * xs) * math.cos(om * ta)))))
        errs.append(worst)
    assert errs[0] / errs[1] > 3.2
    assert errs[1] / errs[2] > 3.2


def test_static_energy_drift(static_maps):
    data = cauchy.make_bump(1.0, 0.5, 0.25, 1.0, "standing")
    run = orc.solve_oracle(data, static_maps.motion, m=0.0, n_y=512,
                           t_max=10.0,
                           times=orc.step_times(static_maps.motion, 512, 10.0))
    E0 = run.energy(1)
    drift = max(abs(run.energy(n) / E0 - 1.0)
                for n in range(1, len(run.ts) - 1, len(run.ts) // 40))
    assert drift <= 1e-3


def test_unstable_smoke(monkeypatch):
    # a time step far beyond the stability limit must be caught
    monkeypatch.setattr(orc, "CFL", 4.0)
    m = boundary.make_motion({"profile": "constant", "alpha": 1.0, "period": 1.0})
    data = cauchy.make_bump(1.0, 0.5, 0.25, 1.0, "standing")
    with pytest.raises(orc.Unstable):
        orc.solve_oracle(data, m, m=0.0, n_y=128, t_max=5.0)


def test_nonfinite_data_raises_unstable():
    m = boundary.make_motion({"profile": "constant", "alpha": 1.0, "period": 1.0})
    bump = cauchy.make_bump(1.0, 0.5, 0.25, 1.0, "standing")

    def nan_phi0(x):
        out = np.array(bump.phi0(x), dtype=float)
        out[len(out) // 2] = np.nan
        return out

    data = cauchy.CauchyData(nan_phi0, bump.phi1, bump.dphi0, bump.ddphi0,
                             bump.dphi1, bump.a0, int_phi1=bump.int_phi1,
                             kinks=bump.kinks)
    with pytest.raises(orc.Unstable) as got:
        orc.solve_oracle(data, m, m=0.0, n_y=64, t_max=0.1)
    want, step = _reference_unstable(data, m, 0.0, 64, 0.1)
    assert str(got.value) == want
    assert step == 1                      # NaN reaches the first new row


@pytest.mark.parametrize("n", [3, 64, 511, 1000])
def test_tridiagonal_step_matches_solve_banded(n):
    from scipy.linalg import solve_banded

    rng = np.random.default_rng(n)
    for _ in range(10):
        sub, sup = rng.uniform(-1.0, 1.0, (2, n - 1))
        diag = rng.uniform(2.5, 4.0, n) * rng.choice([-1.0, 1.0], n)
        rhs = rng.standard_normal(n)
        ab = np.zeros((3, n))
        ab[0, 1:], ab[1], ab[2, :-1] = sup, diag, sub
        ref = solve_banded((1, 1), ab, rhs)
        diag_in = diag.copy()
        x = orc._tridiagonal_solve(sub.copy(), diag, sup.copy(), rhs.copy())
        assert x.shape == (n,)
        assert [v.hex() for v in x.tolist()] == [v.hex() for v in ref.tolist()]
        assert np.array_equal(diag, diag_in)     # reused every oracle step
        # solved where it lies in a row of a 2-D array, as the oracle's
        # right-hand side is built in a row of psi
        grid = np.zeros((3, n + 2))
        row = grid[1, 1:-1]
        row[:] = rhs
        x = orc._tridiagonal_solve(sub.copy(), diag, sup.copy(), row)
        assert np.shares_memory(x, row)
        assert [v.hex() for v in row.tolist()] == [v.hex() for v in ref.tolist()]
        assert not grid[[0, 2]].any() and grid[1, 0] == grid[1, -1] == 0.0
        assert np.array_equal(diag, diag_in)
        # a strided row, which LAPACK cannot take as it lies, gets the
        # solution copied back
        strided = np.zeros(2 * n)[::2]
        strided[:] = rhs
        x = orc._tridiagonal_solve(sub.copy(), diag, sup.copy(), strided)
        assert x is strided
        assert [v.hex() for v in strided.tolist()] == [v.hex() for v in ref.tolist()]


def _reference_march(motion, m, ts, ys, psi):
    """The oracle's step loop with every step building its own coefficients,
    the reference the chunked loop must match bit for bit: fills psi[2:]
    from psi[0] and psi[1]."""
    dy = ys[1] - ys[0]
    dt = ts[1] - ts[0]
    sup0 = max(float(np.max(np.abs(psi[0]))), 1e-30)
    yint = ys[1:-1]
    idt2 = 1.0 / dt**2
    diag = np.full(len(ys) - 2, idt2)
    for n in range(1, len(ts) - 1):
        t = ts[n]
        a_t = float(motion.a(t))
        da_t = float(motion.da(t))
        dda_t = float(motion.dda(t))
        g = (da_t / a_t) * yint
        c2 = (1.0 - (da_t * yint) ** 2) / a_t**2
        c1 = (dda_t / a_t - 2.0 * (da_t / a_t) ** 2) * yint

        cur = psi[n]
        old = psi[n - 1]
        dyy = (cur[2:] - 2.0 * cur[1:-1] + cur[:-2]) / dy**2
        dyc = (cur[2:] - cur[:-2]) / (2.0 * dy)
        dyo = (old[2:] - old[:-2]) / (2.0 * dy)
        rhs = (2.0 * cur[1:-1] - old[1:-1]) * idt2 \
            - (g / dt) * dyo + c2 * dyy + c1 * dyc - m**2 * cur[1:-1]
        coef = g / (dt * 2.0 * dy)
        new = orc._tridiagonal_solve(coef[1:], diag, -coef[:-1], rhs)
        psi[n + 1, 1:-1] = new
        psi[n + 1, 0] = psi[n + 1, -1] = 0.0
        if not float(np.max(np.abs(new))) <= 1e6 * sup0:
            raise orc.Unstable("|psi| exceeded 1e+06 x initial or is not finite at t=%g" % t)
    return psi


# a wall with three Fourier terms: its sum over terms rounds differently for
# a flat vector of times than for one time alone
FOURIER_WALL = {"profile": "fourier", "mean": 1.0, "cos": [0.05, 0.01],
                "sin": [0.02, 0.003, 0.001], "period": 1.0}


@pytest.mark.parametrize("wall, m", [("strong", 0.0), ("strong", 0.5), ("fourier", 0.5)])
def test_chunked_steps_match_reference_loop(strong_maps, wall, m):
    # m = 0 is the mass crosscheck runs the oracle at
    motion = strong_maps.motion if wall == "strong" else boundary.make_motion(FOURIER_WALL)
    data = cauchy.make_bump(1.0, 0.5, 0.25, 1.0, "right")
    run = orc.solve_oracle(data, motion, m=m, n_y=64, t_max=3.0,
                           times=orc.step_times(motion, 64, 3.0))
    steps = len(run.ts) - 2
    assert steps > 3 * orc.STEP_CHUNK and steps % orc.STEP_CHUNK != 0
    ref = np.empty_like(run.psi)
    ref[:2] = run.psi[:2]
    _reference_march(motion, m, run.ts, run.ys, ref)
    assert ref.tobytes() == run.psi.tobytes()


def _reference_unstable(data, motion, m, n_y, t_max):
    """The message _reference_march raises on the solver's grid, and the
    index of the step it names."""
    ts = orc.step_times(motion, n_y, t_max)
    # the solver's two seed rows, from a run of one step (which marches none)
    seed = orc.solve_oracle(data, motion, m=m, n_y=n_y, t_max=ts[1], times=ts[:2])
    assert seed.ts.tolist() == ts[:2].tolist()
    ref = np.empty((len(ts), n_y + 1))
    ref[:2] = seed.psi
    with pytest.raises(orc.Unstable) as want:
        _reference_march(motion, m, ts, seed.ys, ref)
    msg = str(want.value)
    return msg, int(round(float(msg.rsplit("=", 1)[1]) / ts[1]))


def test_chunked_steps_unstable_message_matches_reference(strong_maps, monkeypatch):
    monkeypatch.setattr(orc, "CFL", 4.0)
    data = cauchy.make_bump(1.0, 0.5, 0.25, 1.0, "right")
    with pytest.raises(orc.Unstable) as got:
        orc.solve_oracle(data, strong_maps.motion, m=0.5, n_y=64, t_max=3.0)
    want, step = _reference_unstable(data, strong_maps.motion, 0.5, 64, 3.0)
    assert str(got.value) == want
    # the failing step is not the first of its chunk (chunks start at 1)
    assert (step - 1) % orc.STEP_CHUNK != 0


# demos/example.cfg's wall and data, which crosscheck runs the oracle on at
# n_y = 512 up to t = 4
EXAMPLE_WALL = {"profile": "sinusoidal", "alpha": 0.5, "beta": 0.012, "period": 1.0}


def _example():
    motion = boundary.make_motion(EXAMPLE_WALL)
    return motion, cauchy.make_bump(0.5, 0.15, 0.10, 1.0, "right")


@pytest.mark.parametrize("m", [0.0, 0.27])
def test_probe_rows_match_full_history(m):
    # the default run keeps one row per probe time, each the same bytes as
    # that step of a run that kept every step, and compares bit for bit
    motion, data = _example()
    prof = build_initial_profile(data, boundary.CharacteristicMaps(motion))
    run = orc.solve_oracle(data, motion, m=m, n_y=512, t_max=4.0)
    full = orc.solve_oracle(data, motion, m=m, n_y=512, t_max=4.0,
                            times=orc.step_times(motion, 512, 4.0))
    assert len(run.psi) == len(run.steps) <= 41
    assert len(full.psi) == len(full.ts) == len(run.ts)
    assert run.psi.tobytes() == full.psi[run.steps].tobytes()
    # the reference: the full history probed at the same default times
    probed = orc.OracleRun(motion, m, full.ts, full.ys, run.times, full.steps, full.psi)
    got, want = orc.compare(run, prof), orc.compare(probed, prof)
    assert got[0].tobytes() == want[0].tobytes() and len(got[0]) == 40
    assert got[1].tobytes() == want[1].tobytes() and got[2] == want[2]


def test_probe_run_peak_memory():
    # at crosscheck's size the ring and the 40 kept rows are all a solve
    # holds; the full history would be 20.6 MB
    motion, data = _example()
    orc._flapack()                          # loaded once per process
    tracemalloc.start()
    try:
        run = orc.solve_oracle(data, motion, m=0.0, n_y=512, t_max=4.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(run.psi) == 40
    assert peak <= 2e6                      # measured 0.95 MB


def test_unkept_steps_raise(static_maps):
    data = cauchy.make_eigenmode(1.0, 1, 1.0)
    run = orc.solve_oracle(data, static_maps.motion, m=0.5, n_y=64, t_max=1.0,
                           times=[0.5])
    t_act, _, vals = run.slice_at(0.5)
    assert run.steps == [round(0.5 / run.ts[1])] and vals.tobytes() == run.psi[0].tobytes()
    with pytest.raises(ValueError, match="not kept"):
        run.slice_at(0.25)
    with pytest.raises(ValueError, match="not kept"):
        run.energy(run.steps[0])


def test_compare_zero_vs_zero(static_maps):
    run = orc.solve_oracle(cauchy.zero_data(1.0), static_maps.motion, m=0.0,
                           n_y=64, t_max=1.0)
    prof = build_initial_profile(cauchy.zero_data(1.0), static_maps)
    _, _, overall = orc.compare(run, prof)
    assert overall == 0.0


def test_compare_no_overlap(static_maps):
    run = orc.solve_oracle(cauchy.zero_data(1.0), static_maps.motion, m=0.0,
                           n_y=64, t_max=1.0, times=[5.0, 6.0])
    prof = build_initial_profile(cauchy.zero_data(1.0), static_maps)
    with pytest.raises(orc.NoOverlap):
        orc.compare(run, prof)


def test_compare_pairs_each_value_with_its_probe_time(static_maps):
    # the slice nearest t_max = 1.00559 lies at 72 dt = 1.00699, past the
    # field's range, and is skipped; the time kept is 0.5, the one measured
    data = cauchy.make_eigenmode(1.0, 1, 1.0)
    fg = kg.picard_solve(data, static_maps, m=0.5, resolution=64, t_max=1.00559)
    run, run_half = (orc.solve_oracle(data, static_maps.motion, m=0.5, n_y=64,
                                      t_max=2.0, times=times)
                     for times in ([fg.t_max, 0.5], [0.5]))
    assert run.slice_at(fg.t_max)[0] > fg.t_max
    ts, sups, overall = orc.compare(run, fg)
    ts_half, sups_half, _ = orc.compare(run_half, fg)
    assert ts.tolist() == [0.5] == ts_half.tolist()
    assert sups.tolist() == sups_half.tolist() and overall == sups[0]


def test_compare_batched_matches_per_slice(strong_maps):
    # evaluating the profile PROBE_SLICES slices at a time gives each slice's
    # sup bit for bit; 11 slices end in a partial batch
    data = cauchy.make_bump(1.0, 0.5, 0.25, 1.0, "right")
    prof = build_initial_profile(data, strong_maps)
    for times, count in ((None, 40), (np.linspace(0.1, 1.9, 11), 11)):
        run = orc.solve_oracle(data, strong_maps.motion, m=0.0, n_y=64, t_max=2.0,
                               times=times)
        ts, sups, overall = orc.compare(run, prof)
        assert len(ts) == count > orc.PROBE_SLICES
        for t, sup in zip(ts, sups):
            t_act, xs, vals = run.slice_at(t)
            ref = prof.eval_phi(t_act + xs[1:-1], t_act - xs[1:-1])
            assert sup == float(np.max(np.abs(vals[1:-1] - ref)))
        assert overall == max(sups.tolist())


ORACLE_CHILD = textwrap.dedent("""
    import hashlib, sys
    import numpy as np
    from kgcavity import boundary, cauchy, oracle_fdm as orc
    from kgcavity.characteristics_solver import build_initial_profile

    if sys.argv[1] == "linalg_first":
        import scipy.linalg
    maps = boundary.CharacteristicMaps(boundary.make_motion(
        {"profile": "sinusoidal", "alpha": 1.0, "beta": 0.1, "period": 1.0}))
    data = cauchy.make_bump(1.0, 0.5, 0.25, 1.0, "right")
    prof = build_initial_profile(data, maps)

    def solve():
        run = orc.solve_oracle(data, maps.motion, m=0.3, n_y=64, t_max=2.0)
        _, sups, _ = orc.compare(run, prof)
        return run.psi.tobytes() + sups.tobytes()

    first = solve()
    print("scipy.linalg" in sys.modules)
    import scipy.linalg
    print(orc._flapack() is scipy.linalg.lapack._flapack)
    print(solve() == first)
    print(hashlib.sha256(first).hexdigest())
""")


def test_oracle_loads_no_scipy_linalg():
    # the oracle loads scipy's _flapack extension alone; a later (or earlier)
    # import of scipy.linalg shares that module and changes no value
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(kgcavity.__path__[0]), os.environ.get("PYTHONPATH", "")]))
    out = {}
    for order in ("oracle_first", "linalg_first"):
        out[order] = subprocess.run([sys.executable, "-c", ORACLE_CHILD, order], env=env,
                                    check=True, capture_output=True, text=True).stdout.split()
    assert out["oracle_first"][:3] == ["False", "True", "True"]
    assert out["linalg_first"][:3] == ["True", "True", "True"]
    assert out["oracle_first"][3] == out["linalg_first"][3]


def test_compare_against_fieldgrid_massive(static_maps):
    # oracle vs picard lattice on the static massive eigenmode
    data = cauchy.make_eigenmode(1.0, 1, 1.0)
    run = orc.solve_oracle(data, static_maps.motion, m=1.0, n_y=256, t_max=2.0,
                           times=np.linspace(0.3, 1.9, 9))
    fg = kg.picard_solve(data, static_maps, m=1.0, resolution=256, t_max=2.2)
    _, _, overall = orc.compare(run, fg)
    assert overall <= 5e-4


def test_moving_wall_cross_solver_second_order(strong_maps):
    # resolved horizon: discrepancy vs the exact characteristic solution
    # drops at 2nd order; the measured constant is reported via the ratio
    data = cauchy.make_bump(1.0, 0.5, 0.25, 1.0, "right")
    prof = build_initial_profile(data, strong_maps)
    errs = {}
    for ny in (256, 512):
        run = orc.solve_oracle(data, strong_maps.motion, m=0.0, n_y=ny,
                               t_max=2.4, times=np.linspace(0.2, 2.4, 12))
        _, _, overall = orc.compare(run, prof)
        errs[ny] = overall
    assert errs[256] / errs[512] > 3.0
    # 1.2x the measured 3.02e-2; a profile built from a wall 1 % off
    # (beta = 0.101) gives 3.99e-2, while its ratio 3.27 still passes
    assert errs[512] <= 3.6e-2
    C = errs[512] * 512**2
    print("measured C for sup|phi_char - phi_oracle| = C Delta^2: %.3g" % C)


def test_dirichlet_traces_pinned(strong_maps):
    data = cauchy.make_bump(1.0, 0.5, 0.25, 1.0, "right")
    run = orc.solve_oracle(data, strong_maps.motion, m=0.0, n_y=128, t_max=2.0,
                           times=orc.step_times(strong_maps.motion, 128, 2.0))
    assert len(run.psi) == len(run.ts)
    assert np.max(np.abs(run.psi[:, 0])) == 0.0
    assert np.max(np.abs(run.psi[:, -1])) == 0.0


def test_massive_moving_wall_refinement_ladder(tuned_maps):
    # joint refinement of the oracle and the lattice solver: the massive
    # moving-wall discrepancy decreases at 2nd order
    data = cauchy.make_bump(0.5, 0.25, 0.15, 1.0, "right")
    sups = {}
    for ny in (128, 256):
        run = orc.solve_oracle(data, tuned_maps.motion, m=0.3, n_y=ny,
                               t_max=1.8, times=np.linspace(0.3, 1.7, 8))
        fg = kg.picard_solve(data, tuned_maps, m=0.3, resolution=ny,
                             t_max=2.0)
        _, _, sups[ny] = orc.compare(run, fg)
    assert sups[128] / sups[256] > 3.0
