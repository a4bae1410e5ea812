import math

import numpy as np
import pytest

from kgcavity import boundary, cauchy, kleingordon as kg, oracle_fdm as orc
from kgcavity.characteristics_solver import build_initial_profile


def test_zero_data_identically_zero(static_maps):
    run = orc.solve_oracle(cauchy.zero_data(1.0), static_maps.motion, m=0.3,
                           n_y=64, t_max=1.0)
    assert np.max(np.abs(run.psi)) == 0.0


def test_eigenmode_self_convergence(static_maps):
    # sup error vs the closed form drops ~4x per n_y doubling
    data = cauchy.make_eigenmode(1.0, 1, 1.0)
    om = math.sqrt(math.pi**2 + 0.25)
    errs = []
    for ny in (128, 256, 512):
        run = orc.solve_oracle(data, static_maps.motion, m=0.5, n_y=ny,
                               t_max=3.0)
        worst = 0.0
        for t in (1.0, 2.0, 2.9):
            ta, xs, vals = run.slice_at(t)
            worst = max(worst, float(np.max(np.abs(
                vals - np.sin(np.pi * xs) * math.cos(om * ta)))))
        errs.append(worst)
    assert errs[0] / errs[1] > 3.2
    assert errs[1] / errs[2] > 3.2


def test_static_energy_drift(static_maps):
    data = cauchy.make_bump(1.0, 0.5, 0.25, 1.0, "standing")
    run = orc.solve_oracle(data, static_maps.motion, m=0.0, n_y=512,
                           t_max=10.0)
    E0 = run.energy(1)
    drift = max(abs(run.energy(n) / E0 - 1.0)
                for n in range(1, len(run.ts) - 1, len(run.ts) // 40))
    assert drift <= 1e-3


def test_unstable_smoke():
    # a time step far beyond the stability limit must be caught
    m = boundary.make_motion({"profile": "constant", "alpha": 1.0, "period": 1.0})
    data = cauchy.make_bump(1.0, 0.5, 0.25, 1.0, "standing")
    with pytest.raises(orc.Unstable):
        orc.solve_oracle(data, m, m=0.0, n_y=128, t_max=5.0, cfl=4.0)


def test_nonfinite_data_raises_unstable():
    m = boundary.make_motion({"profile": "constant", "alpha": 1.0, "period": 1.0})
    bump = cauchy.make_bump(1.0, 0.5, 0.25, 1.0, "standing")

    def nan_phi0(x):
        out = np.array(bump.phi0(x), dtype=float)
        out[len(out) // 2] = np.nan
        return out

    data = cauchy.CauchyData(nan_phi0, bump.phi1, bump.dphi0, bump.ddphi0,
                             bump.dphi1, bump.a0)
    with pytest.raises(orc.Unstable):
        orc.solve_oracle(data, m, m=0.0, n_y=64, t_max=0.1)


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


def test_compare_zero_vs_zero(static_maps):
    run = orc.solve_oracle(cauchy.zero_data(1.0), static_maps.motion, m=0.0,
                           n_y=64, t_max=1.0)
    prof = build_initial_profile(cauchy.zero_data(1.0), static_maps)
    _, _, overall = orc.compare(run, prof)
    assert overall == 0.0


def test_compare_no_overlap(static_maps):
    run = orc.solve_oracle(cauchy.zero_data(1.0), static_maps.motion, m=0.0,
                           n_y=64, t_max=1.0)
    prof = build_initial_profile(cauchy.zero_data(1.0), static_maps)
    with pytest.raises(orc.NoOverlap):
        orc.compare(run, prof, times=[5.0, 6.0])


def test_compare_against_fieldgrid_massive(static_maps):
    # oracle vs picard lattice on the static massive eigenmode
    data = cauchy.make_eigenmode(1.0, 1, 1.0)
    run = orc.solve_oracle(data, static_maps.motion, m=1.0, n_y=256, t_max=2.0)
    fg = kg.picard_solve(data, static_maps, m=1.0, resolution=256, t_max=2.2)
    _, _, overall = orc.compare(run, fg, times=np.linspace(0.3, 1.9, 9))
    assert overall <= 5e-4


def test_moving_wall_cross_solver_second_order(strong_maps):
    # resolved horizon: discrepancy vs the exact characteristic solution
    # drops at 2nd order; the measured constant is reported via the ratio
    data = cauchy.make_bump(1.0, 0.5, 0.25, 1.0, "right")
    prof = build_initial_profile(data, strong_maps)
    errs = {}
    for ny in (256, 512):
        run = orc.solve_oracle(data, strong_maps.motion, m=0.0, n_y=ny,
                               t_max=2.4)
        _, _, overall = orc.compare(run, prof,
                                    times=np.linspace(0.2, 2.4, 12))
        errs[ny] = overall
    assert errs[256] / errs[512] > 3.0
    # 1.2x the measured 3.02e-2; a profile built from a wall 1 % off
    # (beta = 0.101) gives 3.99e-2, while its ratio 3.27 still passes
    assert errs[512] <= 3.6e-2
    C = errs[512] * 512**2
    print("measured C for sup|phi_char - phi_oracle| = C Delta^2: %.3g" % C)


def test_dirichlet_traces_pinned(strong_maps):
    data = cauchy.make_bump(1.0, 0.5, 0.25, 1.0, "right")
    run = orc.solve_oracle(data, strong_maps.motion, m=0.0, n_y=128, t_max=2.0)
    assert np.max(np.abs(run.psi[:, 0])) == 0.0
    assert np.max(np.abs(run.psi[:, -1])) == 0.0


def test_massive_moving_wall_refinement_ladder(tuned_maps):
    # joint refinement of the oracle and the lattice solver: the massive
    # moving-wall discrepancy decreases at 2nd order
    data = cauchy.make_bump(0.5, 0.25, 0.15, 1.0, "right")
    sups = {}
    for ny in (128, 256):
        run = orc.solve_oracle(data, tuned_maps.motion, m=0.3, n_y=ny,
                               t_max=1.8)
        fg = kg.picard_solve(data, tuned_maps, m=0.3, resolution=ny,
                             t_max=2.0)
        _, _, sups[ny] = orc.compare(run, fg, times=np.linspace(0.3, 1.7, 8))
    assert sups[128] / sups[256] > 3.0
