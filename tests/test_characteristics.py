import numpy as np
import pytest

from kgcavity import boundary, cauchy
from kgcavity import characteristics_solver as cs
from kgcavity._quadrature import gauss_panels


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
    # prolongation depth: eta lies in F^n([-a(0), a(0)))
    prof = _profile(static_maps)
    assert prof.pullback([0.5, 1.5, 3.7])[1].tolist() == [0, 1, 2]


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
    phi_t = prof.G_prime(-x) - prof.G_prime(x)     # at t = 0: eta = -x, xi = x
    assert np.max(np.abs(phi_t - data.phi1(x))) <= 1e-11


def test_pure_transport_before_wall(static_maps):
    data = cauchy.make_bump(1.0, 0.45, 0.2, 1.0, "right")
    prof = cs.build_initial_profile(data, static_maps)
    t = 0.3   # bump support [0.25+t, 0.65+t] stays inside (0, 1)
    x = np.linspace(0.0, 1.0, 400)
    phi = prof.eval_phi(t + x, t - x)
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


def test_energy_massless_zero_data(strong_maps, monkeypatch):
    prof = _profile(strong_maps, cauchy.zero_data(strong_maps.a0))
    calls, push = [], strong_maps.F_and_dF
    monkeypatch.setattr(strong_maps, "F_and_dF", lambda x: calls.append(x.size) or push(x))
    assert prof.energy(1.0) == 0.0
    E = prof.energy_series(np.arange(8 * 32) / 32.0)
    assert np.array_equal(E, np.zeros(8 * 32)) and not np.signbit(E).any()
    # no panel carries energy, so no node is pushed through F
    assert calls == []


def test_energy_two_time_sandwich(strong_maps):
    prof = _profile(strong_maps)
    rng = np.random.default_rng(3)
    for _ in range(20):
        t1 = rng.uniform(0.2, 4.0)
        t2 = t1 + rng.uniform(0.0, 2 * strong_maps.motion.a_min)
        E1, E2 = prof.energy(t1), prof.energy(t2)
        assert E1 / strong_maps.dF_max - 1e-12 <= E2 <= E1 / strong_maps.dF_min + 1e-12


# ---------------------------------------------------------------------------
# E_0 over one pulled-back fundamental domain
# ---------------------------------------------------------------------------

def _eta_route(prof, ts, cut=1):
    """E_0 by 24-node Gauss panels in eta over [h(t), k(t)], split at the
    F-images of the initial kinks and each cut into ``cut`` equal parts
    (``cut = 1`` is how E_0 was integrated before the pulled-back route)."""
    nodes, weights = np.polynomial.legendre.leggauss(24)
    maps = prof.maps
    his, los = np.asarray(maps.k(ts)), np.asarray(maps.h(ts))
    images = list(prof._initial_kinks)
    cur = prof._initial_kinks[prof._initial_kinks > -prof.a0]
    while cur.size:
        cur = np.asarray(maps.F(cur))
        cur = cur[cur <= his.max() + 1e-9]
        images.extend(cur.tolist())
    images = np.unique(images)
    out = []
    for lo, hi in zip(los, his):
        edges = np.concatenate([[lo], images[(images > lo + 1e-13) & (images < hi - 1e-13)],
                                [hi]])
        e0 = (edges[:-1, None] + np.diff(edges)[:, None] * np.arange(cut) / cut).ravel()
        e1 = np.append(e0[1:], hi)
        x = 0.5 * (e0 + e1)[:, None] + 0.5 * (e1 - e0)[:, None] * nodes
        w = 0.5 * (e1 - e0)[:, None] * weights
        out.append(float(np.sum(w * prof.G_prime(x.ravel()).reshape(x.shape) ** 2)))
    return np.array(out)


def _scan_profile(alpha):
    # the scan workload's wall and a bump inside its draw range
    maps = boundary.CharacteristicMaps(boundary.make_motion(
        {"profile": "sinusoidal", "alpha": alpha, "beta": 0.14, "period": 1.0}))
    return cs.build_initial_profile(cauchy.make_bump(maps.a0, 0.13, 0.06, 1.0, "right"),
                                    maps)


@pytest.mark.parametrize("alpha, p, picks", [
    (0.35, 15, [113, 227]),           # 15:17, t = 53.0, 106.4
    (0.30, 2, [100, 244, 255]),       # 2:3, t = 6.25, 15.25, 15.94
])
def test_energy_matches_refined_eta_reference(alpha, p, picks):
    # scan sampling (32 per window of p periods, 8 windows); G' compresses
    # like 1/DF^n in eta, where the unrefined panels were off by up to 2.4
    prof = _scan_profile(alpha)
    ts = p / 32.0 * np.arange(8 * 32)
    E = prof.energy_series(ts)
    ref = _eta_route(prof, ts[picks], cut=512)
    assert np.max(np.abs(E[picks] / ref - 1.0)) <= 1e-8


def test_energy_deep_attractor_positive_and_sandwiched():
    # 1:1 with gamma = 2.75: by t ~ 11.5 the eta feature of G' is narrower
    # than double spacing, and the eta route returned exactly 0 from there
    prof = _scan_profile(0.5)
    maps = prof.maps
    assert np.all(prof.energy_series(np.arange(12 * 32) / 32.0) > 0.0)
    # gamma t ~ 60; the attractor x = 0 reflects where DF = dF_min, so each
    # period multiplies E_0 by 1/dF_min and the upper bound is attained
    rng = np.random.default_rng(3)
    t1 = rng.uniform(21.5, 22.5, 20)
    t2 = t1 + rng.uniform(0.0, 2 * maps.motion.a_min, 20)
    E1, E2 = prof.energy_series(t1), prof.energy_series(t2)
    assert np.all(np.isfinite(E1)) and np.all(E1 > 1e27)
    assert np.all(E1 / maps.dF_max * (1.0 - 1e-10) <= E2)
    assert np.all(E2 <= E1 / maps.dF_min * (1.0 + 1e-10))


def test_energy_example_wall_matches_eta_route():
    # demos/example.cfg's 1:1 wall and bump, its m = 0 leg's 384 samples:
    # a mild attractor, where unrefined eta panels were already exact
    maps = boundary.CharacteristicMaps(boundary.make_motion(
        {"profile": "sinusoidal", "alpha": 0.5, "beta": 0.012, "period": 1.0}))
    prof = cs.build_initial_profile(cauchy.make_bump(0.5, 0.15, 0.10, 1.0, "right"), maps)
    ts = np.arange(12 * 32) / 32.0
    E = prof.energy_series(ts)
    assert np.max(np.abs(E / _eta_route(prof, ts) - 1.0)) <= 1e-12


def test_profile_needs_int_phi1(strong_maps):
    bump = cauchy.make_bump(strong_maps.a0, 0.45, 0.2, 1.0, "right")
    data = cauchy.CauchyData(bump.phi0, bump.phi1, bump.dphi0, bump.ddphi0,
                             bump.dphi1, bump.a0)
    with pytest.raises(AttributeError, match="int_phi1"):
        cs.MasslessProfile(data, strong_maps)


def test_energy_tabulated_data_cut_at_table_nodes(tmp_path):
    # a 51-node table of the example bump on the example wall: G0' has a
    # kink at every node, so the panels must be cut there; without the cuts
    # E_0 was 1.7e-3 off
    maps = boundary.CharacteristicMaps(boundary.make_motion(
        {"profile": "sinusoidal", "alpha": 0.5, "beta": 0.012, "period": 1.0}))
    bump = cauchy.make_bump(maps.a0, 0.15, 0.10, 1.0, "right")
    xs = np.linspace(0.0, maps.a0, 51)
    path = tmp_path / "bump.txt"
    with open(path, "w") as fh:
        fh.write("[phi0]\n")
        fh.writelines("%.17g %.17g\n" % (x, v) for x, v in zip(xs, bump.phi0(xs)))
        fh.write("[phi1]\n")
        fh.writelines("%.17g %.17g\n" % (x, v) for x, v in zip(xs, bump.phi1(xs)))
        fh.write("[derivatives]\nphi0_prime_0 = 0.0\nphi0_prime_a = 0.0\n"
                 "phi0_second_0 = 0.0\nphi0_second_a = 0.0\nphi1_prime_a = 0.0\n")
    data = cauchy.load_tabulated(str(path), maps.a0)
    ts = np.arange(12 * 8) / 8.0
    E = cs.MasslessProfile(data, maps).energy_series(ts)
    # the same route with 4096 extra uniform cuts
    fine = cauchy.load_tabulated(str(path), maps.a0)
    fine.kinks = tuple(getattr(data, "kinks", ())) \
        + tuple(np.linspace(0.0, maps.a0, 4098)[1:-1])
    ref = cs.MasslessProfile(fine, maps).energy_series(ts)
    assert np.max(np.abs(E / ref - 1.0)) <= 1e-12


def _all_panel_energy_series(prof, ts):
    """(E_0, live panels) of energy_series as it was before only the live
    panels were pushed: every panel's nodes go through F_and_dF."""
    ys, ns, _ = prof.pullback(prof.maps.h(ts))
    cuts = np.union1d(prof._initial_kinks, ys)
    x, wg = gauss_panels(cuts[:-1], cuts[1:], cs._GAUSS_NODES, cs._GAUSS_WEIGHTS)
    x = x.ravel()
    wg = wg.ravel() * prof._G0_prime(x) ** 2
    P = np.empty((int(ns.max()) + 2, cuts.size - 1))
    P[0] = wg.reshape(P.shape[1], -1).sum(axis=1)
    dfk = np.ones_like(x)
    for k in range(1, P.shape[0]):
        x, d = prof.maps.F_and_dF(x)
        dfk *= d
        P[k] = (wg / dfk).reshape(P.shape[1], -1).sum(axis=1)
    zero = np.zeros((P.shape[0], 1))
    below = np.hstack([zero, np.cumsum(P, axis=1)])
    above = np.hstack([np.cumsum(P[:, ::-1], axis=1)[:, ::-1], zero])
    j = np.searchsorted(cuts, ys)
    live = int(wg.reshape(P.shape[1], -1).any(axis=1).sum())
    return above[ns, j] + below[ns + 1, j], live, P.shape[1], int(ns.max())


def _tabulated_bump(path, a0):
    # a 51-node table of a right-moving bump, as a user would supply it
    bump = cauchy.make_bump(a0, 0.13, 0.06, 1.0, "right")
    xs = np.linspace(0.0, a0, 51)
    with open(path, "w") as fh:
        fh.write("[phi0]\n")
        fh.writelines("%.17g %.17g\n" % (x, v) for x, v in zip(xs, bump.phi0(xs)))
        fh.write("[phi1]\n")
        fh.writelines("%.17g %.17g\n" % (x, v) for x, v in zip(xs, bump.phi1(xs)))
        fh.write("[derivatives]\nphi0_prime_0 = 0.0\nphi0_prime_a = 0.0\n"
                 "phi0_second_0 = 0.0\nphi0_second_a = 0.0\nphi1_prime_a = 0.0\n")
    return cauchy.load_tabulated(str(path), a0)


@pytest.mark.parametrize("data_kind", ["right", "left", "standing", "eigenmode",
                                       "tabulated"])
@pytest.mark.parametrize("alpha, beta, window", [
    (0.5, 0.012, 1.0),            # demos/example.cfg's wall, 1:1
    (0.35, 0.14, 15.0),           # a scan wall, 15:17
])
def test_energy_series_pushes_only_live_panels(alpha, beta, window, data_kind,
                                               tmp_path, monkeypatch):
    maps = boundary.CharacteristicMaps(boundary.make_motion(
        {"profile": "sinusoidal", "alpha": alpha, "beta": beta, "period": 1.0}))
    if data_kind == "eigenmode":
        data = cauchy.make_eigenmode(maps.a0)
    elif data_kind == "tabulated":
        data = _tabulated_bump(tmp_path / "bump.txt", maps.a0)
    else:
        data = cauchy.make_bump(maps.a0, 0.13, 0.06, 1.0, data_kind)
    prof = cs.MasslessProfile(data, maps)
    ts = window / 32.0 * np.arange(4 * 32)
    ref, live, panels, depth = _all_panel_energy_series(prof, ts)

    sizes = []
    push = maps.F_and_dF
    monkeypatch.setattr(maps, "F_and_dF", lambda x: sizes.append(x.size) or push(x))
    E = prof.energy_series(ts)
    assert np.array_equal(E, ref)
    assert sizes == [24 * live] * (depth + 1)
    if data_kind == "eigenmode":
        assert live == panels
    else:
        # G0' vanishes off the bump, and on one side of eta = 0 for a mover
        assert live < panels
