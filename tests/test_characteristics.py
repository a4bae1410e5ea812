import numpy as np
import pytest

from kgcavity import boundary, cauchy
from kgcavity import characteristics_solver as cs


def _profile(maps, data=None, **kw):
    if data is None:
        data = cauchy.make_bump(maps.a0, 0.5 * maps.a0, 0.25 * maps.a0, 1.0, "right")
    return cs.build_initial_profile(data, maps, **kw)


def test_zero_data_zero_profile(static_maps):
    prof = _profile(static_maps, cauchy.zero_data(1.0))
    eta = np.linspace(-1, 5, 100)
    assert np.all(prof.G(eta) == 0.0)
    assert np.all(prof.G_prime(eta) == 0.0)


def test_right_mover_initial_G(static_maps):
    data = cauchy.make_bump(1.0, 0.5, 0.25, 1.0, "right")
    prof = cs.build_initial_profile(data, static_maps)
    eta = np.linspace(-0.99, 0.99, 199)
    expected = np.where(eta < 0, np.asarray(data.phi0(-eta)), 0.0)
    assert np.max(np.abs(prof.G(eta) - expected)) <= 1e-13


def test_standing_bump_G_is_odd(static_maps):
    data = cauchy.make_bump(1.0, 0.5, 0.25, 1.0, "standing")
    prof = cs.build_initial_profile(data, static_maps)
    eta = np.linspace(0.01, 0.99, 99)
    assert np.allclose(prof.G(eta), -prof.G(-eta), atol=1e-14)
    assert np.allclose(prof.G(eta), -0.5 * np.asarray(data.phi0(eta)), atol=1e-14)


def test_G_prime_sign_convention_by_finite_differences(strong_maps):
    # the piecewise formula G0'(eta) = -(phi0'(|eta|) + phi1(|eta|) sgn eta)/2
    # must match finite differences of G0 on both sides of eta = 0
    for direction in ("left", "right", "standing"):
        data = cauchy.make_bump(strong_maps.a0, 0.45, 0.2, 1.0, direction)
        prof = cs.build_initial_profile(data, strong_maps)
        h = 1e-6
        eta = np.concatenate([np.linspace(-0.85, -0.05, 40),
                              np.linspace(0.05, 0.85, 40)])
        fd = (prof.G(eta + h) - prof.G(eta - h)) / (2 * h)
        assert np.max(np.abs(fd - prof.G_prime(eta))) <= 1e-7


def test_incompatible_data_rejected(strong_maps):
    with pytest.raises(cs.IncompatibleData):
        cs.build_initial_profile(cauchy.make_eigenmode(strong_maps.a0), strong_maps)


def test_prolongation_static_periodicity(static_maps):
    # F = shift by 2: G is 2-periodic beyond the initial interval
    prof = _profile(static_maps)
    eta = np.linspace(-1, 1, 101)
    for k in (1, 2, 3):
        assert np.allclose(prof.G(eta + 2 * k), prof.G(eta), atol=1e-12)


def test_n_of_eta_bookkeeping(static_maps):
    prof = _profile(static_maps)
    assert prof.n_of(0.5) == 0
    assert prof.n_of(1.5) == 1
    assert prof.n_of(3.7) == 2
    assert prof.K_of(0.0) == prof.n_of(1.0)


def test_prolongation_consistency_massless(strong_maps):
    # G(F(eta)) = G(eta) exactly for f == 0
    prof = _profile(strong_maps)
    rng = np.random.default_rng(1)
    eta = rng.uniform(-strong_maps.a0, 8.0, 100)
    res = np.abs(prof.G(np.asarray(strong_maps.F(eta))) - prof.G(eta))
    assert np.max(res) <= 1e-10


def test_eval_phi_wall_traces(strong_maps):
    prof = _profile(strong_maps)
    eta = np.linspace(-strong_maps.a0, 6.0, 1000)
    xi = np.asarray(strong_maps.F(eta))
    assert np.max(np.abs(prof.eval_phi(xi, eta))) <= 1e-11
    s = np.linspace(0.0, 6.0, 1000)
    assert np.max(np.abs(prof.eval_phi(s, s))) == 0.0


def test_eval_phi_outside_domain(strong_maps):
    prof = _profile(strong_maps)
    with pytest.raises(cs.OutsideDomain):
        prof.eval_phi(1.0, 2.0)          # eta > xi


def test_initial_traces(strong_maps):
    data = cauchy.make_bump(strong_maps.a0, 0.5, 0.3, 0.7, "left")
    prof = cs.build_initial_profile(data, strong_maps)
    x = np.linspace(1e-3, strong_maps.a0 - 1e-3, 500)
    assert np.max(np.abs(prof.eval_phi(x, -x) - data.phi0(x))) <= 1e-12
    _, phi_t, _ = prof.phi_txy(np.zeros_like(x), x)
    assert np.max(np.abs(phi_t - data.phi1(x))) <= 1e-11


def test_pure_transport_before_wall(static_maps):
    data = cauchy.make_bump(1.0, 0.45, 0.2, 1.0, "right")
    prof = cs.build_initial_profile(data, static_maps)
    t = 0.3   # bump support [0.25+t, 0.65+t] stays inside (0, 1)
    x = np.linspace(0.0, 1.0, 400)
    phi, _, _ = prof.phi_txy(np.full_like(x, t), x)
    assert np.max(np.abs(phi - data.phi0(x - t))) <= 1e-13


def test_dalembert_mixed_derivative_residual(strong_maps):
    # d2 phi / dxi deta = 0 for the massless field
    prof = _profile(strong_maps)
    rng = np.random.default_rng(7)
    h = 1e-4
    worst = 0.0
    for _ in range(200):
        t = rng.uniform(0.5, 4.0)
        x = rng.uniform(0.05, float(strong_maps.motion.a(t)) - 0.05)
        xi, eta = t + x, t - x
        v = (prof.eval_phi(xi + h, eta + h, check=False)
             - prof.eval_phi(xi + h, eta - h, check=False)
             - prof.eval_phi(xi - h, eta + h, check=False)
             + prof.eval_phi(xi - h, eta - h, check=False)) / (4 * h * h)
        worst = max(worst, abs(float(v)))
    assert worst <= 1e-4   # h^2-scaled roundoff plus stencil truncation


def test_reflection_identity_exact(strong_maps):
    # phi(xi, eta) = -phi(B(xi, eta)) for the massless field when T(B) >= 0
    prof = _profile(strong_maps)
    rng = np.random.default_rng(8)
    count = 0
    while count < 1000:
        t = rng.uniform(1.2, 5.0)
        x = rng.uniform(1e-3, float(strong_maps.motion.a(t)) - 1e-3)
        xi, eta = t + x, t - x
        b_eta = float(strong_maps.F_inv(xi))
        if eta + b_eta < 0:
            continue
        lhs = prof.eval_phi(xi, eta)
        rhs = -prof.eval_phi(eta, b_eta)
        assert abs(lhs - rhs) <= 1e-10
        count += 1


def test_energy_massless_static_conservation(static_maps):
    data = cauchy.make_bump(1.0, 0.5, 0.25, 1.0, "standing")
    prof = cs.build_initial_profile(data, static_maps)
    ts = np.linspace(0.0, 10.0, 81)
    E = prof.energy_series(ts)
    assert np.max(np.abs(E / E[0] - 1.0)) <= 1e-8


def test_energy_massless_zero_data(strong_maps):
    prof = _profile(strong_maps, cauchy.zero_data(strong_maps.a0))
    assert prof.energy(1.0) == 0.0


def test_energy_two_time_sandwich(strong_maps):
    prof = _profile(strong_maps)
    rng = np.random.default_rng(3)
    for _ in range(20):
        t1 = rng.uniform(0.2, 4.0)
        t2 = t1 + rng.uniform(0.0, 2 * strong_maps.motion.a_min)
        E1, E2 = prof.energy(t1), prof.energy(t2)
        assert E1 / strong_maps.dF_max - 1e-12 <= E2 <= E1 / strong_maps.dF_min + 1e-12
