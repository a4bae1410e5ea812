import math
from fractions import Fraction

import numpy as np
import pytest

from kgcavity import boundary, circle_dynamics as cd

from conftest import farey_bracket, random_validated_motions


def _maps(spec):
    return boundary.CharacteristicMaps(boundary.make_motion(spec))


def test_rotation_rigid_translation():
    maps = _maps({"profile": "constant", "alpha": 1.0, "period": 2.0})
    for n in [1, 7, 100]:
        est, hw = cd.rotation_number(maps, n)
        assert est == pytest.approx(2.0, abs=1e-12)
        assert hw == pytest.approx(2.0 / n)


def test_rotation_estimates_bracket_each_other(strong_maps):
    # both estimates lie within T/n of rho, so they differ by <= T/n + T/2n
    for n in [100, 500]:
        e1, h1 = cd.rotation_number(strong_maps, n)
        e2, h2 = cd.rotation_number(strong_maps, 2 * n)
        assert abs(e1 - e2) <= h1 + h2


def test_rotation_long_iteration_two_starts(tuned_maps):
    # half-width 1e-6 at n = 10^6; independent starts agree within bars
    n = 1_000_000
    e1, h1 = cd.rotation_number(tuned_maps, n, x0=0.1)
    e2, h2 = cd.rotation_number(tuned_maps, n, x0=-0.37)
    assert h1 == pytest.approx(1e-6)
    assert abs(e1 - e2) <= h1 + h2


# the benchmark scan motions sinusoidal(alpha, 0.14, 1)
_SCAN_ALPHAS = (0.30, 0.35, 0.36, 0.40, 0.50, 0.66, 0.70, 0.80)


def test_rotation_bracket_inside_the_bar():
    # every step of the full n-step orbit bounds rho (Poincare), so that
    # bracket lies inside [est - T/n, est + T/n] wherever the walk stopped;
    # sinusoidal(0.5, 0.14, 1) starts on its fixed point, no step counts and
    # the estimate is F^n(0)/n
    rng = np.random.default_rng(16)
    cases = [(_maps({"profile": "sinusoidal", "alpha": alpha, "beta": 0.14,
                     "period": 1.0}), 0.0, alpha == 0.50) for alpha in _SCAN_ALPHAS]
    cases += [(boundary.CharacteristicMaps(m), float(rng.uniform(-m.a0, m.a0)), False)
              for m in random_validated_motions(rng, 6)]
    n = 20_000
    for maps, x0, fixed_start in cases:
        est, hw = cd.rotation_number(maps, n, x0)
        assert hw == maps.T / n
        d, lo, hi = farey_bracket(maps, n, x0)
        if fixed_start:
            assert lo is None and hi is None and est == d / n
            continue
        bar = Fraction(maps.T) / n
        assert Fraction(est) - bar <= lo * Fraction(maps.T)
        assert hi * Fraction(maps.T) <= Fraction(est) + bar


@pytest.mark.parametrize("fixture", ["static_maps", "tuned_maps"])
def test_rotation_fallback_bit_for_bit(request, fixture):
    # a rigid rotation by T, and an orbit from the fixed point 0, land on
    # integers d_k / T: no step counts, and the estimate stays F^n(0)/n
    maps = request.getfixturevalue(fixture)
    n = 20_000
    d, lo, hi = farey_bracket(maps, n)
    assert lo is None and hi is None
    est, _, _ = cd.rotation_bracket(maps, n)
    assert cd.rotation_bracket(maps, n) == (est, None, None)
    assert float.hex(est) == float.hex(d / n)
    assert cd.rotation_number(maps, n) == (est, maps.T / n)


def test_detect_resonance_integer():
    assert cd.detect_resonance(2.0, 1e-6, 1.0, 10) == (2, 1)


def test_detect_resonance_half_integer():
    assert cd.detect_resonance(0.5, 1e-6, 1.0, 10) == (1, 2)


def test_detect_resonance_irrational_none():
    assert cd.detect_resonance(math.pi / 4, 1e-8, 1.0, 50) is None


def test_detect_resonance_ambiguous():
    with pytest.raises(cd.AmbiguousResonance):
        cd.detect_resonance(0.5, 0.2, 1.0, 10)


def test_periodic_points_degenerate_rigid():
    maps = _maps({"profile": "constant", "alpha": 1.0, "period": 2.0})
    with pytest.raises(cd.DegenerateMap):
        cd.find_periodic_points(maps, 1, 1)


def test_periodic_points_off_resonance_empty():
    maps = _maps({"profile": "constant", "alpha": 1.0, "period": 3.0})
    assert cd.find_periodic_points(maps, 1, 1) == []


def test_periodic_points_tuned(tuned_maps):
    est, hw = cd.rotation_number(tuned_maps, 100_000)
    p, q = cd.detect_resonance(est, hw, tuned_maps.T, 10)
    assert (p, q) == (1, 1)
    pts = cd.find_periodic_points(tuned_maps, p, q)
    assert len(pts) == 2
    kinds = [pt.kind for pt in pts]
    assert sorted(kinds) == ["attracting", "repelling"]
    # residual |F^q(x) - x - pT| <= 1e-9, against a dense-scan oracle
    for pt in pts:
        g, _ = cd._g_and_multiplier(tuned_maps, pt.x, p, q)
        assert abs(float(g)) <= 1e-9
    # alternation along the interval
    for a, b in zip(pts[:-1], pts[1:]):
        assert a.kind != b.kind


def test_periodic_points_dense_scan_oracle(tuned_maps):
    # brute-force sign scan at 10x the default density finds the same roots
    pts = cd.find_periodic_points(tuned_maps, 1, 1)
    xs = np.linspace(-0.5, 0.5, 100_000, endpoint=False)
    g, _ = cd._g_and_multiplier(tuned_maps, xs, 1, 1)
    sign_changes = np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)[0]
    brute = list(xs[np.abs(g) < 1e-12]) + [xs[i] for i in sign_changes]
    assert len(brute) == len(pts)
    for r in brute:
        assert min(abs(r - pt.x) for pt in pts) <= 2e-5


def test_periodic_set_F_invariant(strong_maps):
    pts = cd.find_periodic_points(strong_maps, 2, 1)
    xs = [pt.x for pt in pts]
    T = strong_maps.T
    for pt in pts:
        y = float(strong_maps.F(pt.x))
        y -= T * math.floor((y + strong_maps.a0) / T)
        while y >= strong_maps.a0:
            y -= T
        assert min(abs(y - x) for x in xs) <= 1e-8


def test_multiplier_constant_along_orbit(strong_maps):
    pts = cd.find_periodic_points(strong_maps, 2, 1)
    for pt in pts:
        y = float(strong_maps.F(pt.x))
        _, mult = cd._g_and_multiplier(strong_maps, y, 2, 1)
        assert float(mult) == pytest.approx(pt.multiplier, abs=1e-8)


def test_growth_exponent_arithmetic(strong_maps):
    # gamma = -ln(mu)/(pT) on the 2:1 wall: the divisor is pT, not qT or T
    pts = cd.find_periodic_points(strong_maps, 2, 1)
    gamma, _, _, _, _ = cd.growth_exponent(strong_maps, pts, 2, 1)
    mu = min(pt.multiplier for pt in pts if pt.kind == "attracting")
    assert mu == pytest.approx(0.2283, abs=1e-4)
    assert gamma == -math.log(mu) / (2 * strong_maps.T)


def test_growth_exponent_tuned(tuned_maps):
    pts = cd.find_periodic_points(tuned_maps, 1, 1)
    gamma, i0, intervals, J, m0 = cd.growth_exponent(tuned_maps, pts, 1, 1)
    mu = min(pt.multiplier for pt in pts if pt.kind == "attracting")
    assert gamma == pytest.approx(-math.log(mu) / 1.0)
    assert gamma > 0
    assert m0 == pytest.approx(math.sqrt(gamma / tuned_maps.motion.a_max))
    # single attractor: J is the whole open fundamental interval
    assert len(J) == 1
    lo, hi = J[0]
    assert lo == pytest.approx(-0.5, abs=1e-8)
    assert hi == pytest.approx(0.5, abs=1e-8)


def test_no_attractor_error():
    maps = _maps({"profile": "constant", "alpha": 1.0, "period": 3.0})
    with pytest.raises(cd.NoAttractor):
        cd.growth_exponent(maps, [], 1, 1)


def test_neutral_point_raised():
    # beta -> 0 with exact resonance: multipliers (1 -+ 2 pi b)/(1 +- 2 pi b)
    # at b = 1e-10 both are within 1e-8 of 1
    maps = _maps({"profile": "sinusoidal", "alpha": 0.5, "beta": 1e-10,
                  "period": 1.0})
    with pytest.raises((cd.NeutralPoint, cd.DegenerateMap)):
        cd.find_periodic_points(maps, 1, 1)


# ---------------------------------------------------------------------------
# roots between grid nodes: the saddle-node at a tongue edge
# ---------------------------------------------------------------------------

# sinusoidal(alpha, 0.14, 1) has max (F - Id) = 2 (alpha + 0.14), reached at
# x = -0.25, so alpha = 0.36 is the lower edge of its 1:1 tongue; the 2:3
# tongue's lower edge, bisected in alpha on find_periodic_points, is here
_EDGE_23 = 0.2979191970022564

# (x, DF^q) to 40 digits, written by bench/periodic_reference.py --doubles
# (mpmath Newton at 50 digits from each point find_periodic_points returns)
# for sinusoidal(0.36 + 1e-10, 0.14, 1), 1:1 ...
_PAIR_11 = [
    ("-0.250006015491668474232459167007869706639", "1.000066497196660637974621939423978186107"),
    ("-0.249993984508331525767540832992130293361", "0.9999335072249225028652724721807241153432"),
]
# ... and for sinusoidal(_EDGE_23 + 1e-11, 0.14, 1) = (0.2979191970122564, ...), 2:3
_PAIRS_23 = [
    ("-0.2500023086408434020798233058565802255196", "1.000031351404250558853661659450713198036"),
    ("-0.2499976913591565979201766941434197744804", "0.9999686495786291749684333589917121326382"),
    ("-0.09208643762302777560004228675485552257603", "1.000031351404250558853661659450713198036"),
    ("-0.09207516817697733826154366553744271993532", "0.9999686495786291749684333589917121326382"),
]


def _sign_changes(maps, p, q, xs):
    g, _ = cd._g_and_multiplier(maps, xs, p, q)
    return int(np.sum(np.sign(g[:-1]) * np.sign(g[1:]) < 0))


def test_tongue_edge_neutral_point():
    # g(-0.25) = 0 with DF = 1, while the nodes around it read -1.7e-8 and
    # -1.4e-9: a double root that no sign change shows
    maps = _maps({"profile": "sinusoidal", "alpha": 0.36, "beta": 0.14,
                  "period": 1.0})
    with pytest.raises(cd.NeutralPoint) as exc:
        cd.find_periodic_points(maps, 1, 1)
    assert abs(exc.value.x + 0.25) <= 1e-9
    analysis = cd.analyze_map(maps, rotation_iterations=100_000, max_q=20)
    assert analysis.status == "NeutralPoint at x=%.12g" % exc.value.x
    assert analysis.rotation_certified
    assert analysis.rotation_estimate == maps.T


def test_close_pair_inside_one_cell():
    # just inside the tongue the pair lies 1.2e-5 apart, in one cell of 7.2e-5
    maps = _maps({"profile": "sinusoidal", "alpha": 0.36 + 1e-10, "beta": 0.14,
                  "period": 1.0})
    pts = cd.find_periodic_points(maps, 1, 1)
    dx = 2 * maps.a0 / cd.SCAN_SAMPLES
    assert math.floor((pts[0].x + maps.a0) / dx) == math.floor((pts[1].x + maps.a0) / dx)
    assert [pt.kind for pt in pts] == ["repelling", "attracting"]
    # a dense scan at 1e-8 sees the same two roots
    assert _sign_changes(maps, 1, 1, np.linspace(-0.2501, -0.2499, 20_001)) == 2
    for pt, (x, mult) in zip(pts, _PAIR_11):
        assert pt.x == pytest.approx(float(x), abs=1e-12)
        assert pt.multiplier == pytest.approx(float(mult), rel=1e-10)
    analysis = cd.analyze_map(maps, rotation_iterations=100_000, max_q=20)
    assert analysis.status == "ok"
    assert analysis.rotation_certified
    assert analysis.periodic_points == pts
    assert analysis.gamma == -math.log(pts[1].multiplier) / maps.T > 0


def test_close_pairs_through_the_orbit_images():
    # 1e-11 inside the 2:3 edge: two close pairs in [lo, hi), 4.6e-6 and
    # 1.1e-5 wide in cells of 2e-5; the one-domain scan finds one, the
    # rescan around its orbit images the other
    maps = _maps({"profile": "sinusoidal", "alpha": _EDGE_23 + 1e-11, "beta": 0.14,
                  "period": 1.0})
    pts = cd.find_periodic_points(maps, 2, 3)
    assert [pt.kind for pt in pts] == ["repelling", "attracting"] * 2
    assert _sign_changes(maps, 2, 3, np.linspace(-maps.a0, maps.a0, 600_001)) == 4
    # DF^3 - 1 = 3.1e-5 there, so the 2e-16 that rounding leaves in g moves
    # a root by 6e-12
    for pt, (x, mult) in zip(pts, _PAIRS_23):
        assert pt.x == pytest.approx(float(x), abs=2e-11)
        assert pt.multiplier == pytest.approx(float(mult), rel=1e-9)
    # 1e-11 outside no root is left: g peaks at -3.7e-11 and -8.9e-11
    outside = _maps({"profile": "sinusoidal", "alpha": _EDGE_23 - 1e-11, "beta": 0.14,
                     "period": 1.0})
    assert cd.find_periodic_points(outside, 2, 3) == []


def test_outside_the_tongue_edge_no_root():
    maps = _maps({"profile": "sinusoidal", "alpha": 0.36 - 1e-9, "beta": 0.14,
                  "period": 1.0})
    assert cd.find_periodic_points(maps, 1, 1) == []
    g, _ = cd._g_and_multiplier(maps, np.linspace(-0.2501, -0.2499, 20_001), 1, 1)
    assert g.max() < 0.0


# ---------------------------------------------------------------------------
# asymptotic coefficients and weighted integrals
# ---------------------------------------------------------------------------

def test_asymptotic_zero_profile(tuned_maps):
    pts = cd.find_periodic_points(tuned_maps, 1, 1)
    coeffs = cd.asymptotic_coefficients(tuned_maps, lambda x: 0.0 * x, pts, 1, 1)
    assert all(A == pytest.approx(0.0, abs=1e-15) for _, A in coeffs)


def test_asymptotic_support_selects_interval(strong_maps):
    # two attractors per fundamental interval; f supported in one basin only
    pts = cd.find_periodic_points(strong_maps, 2, 1)
    att = [pt for pt in pts if pt.kind == "attracting"]
    assert len(att) == 2
    a1 = att[0].x
    b_right = min(pt.x for pt in pts if pt.kind == "repelling" and pt.x > a1)
    c = 0.5 * (a1 + b_right)
    w = 0.2 * (b_right - a1)

    def f(x):
        u = (np.asarray(x) - c) / w
        return np.where(np.abs(u) < 1, (1 - u**2) ** 2, 0.0)

    coeffs = cd.asymptotic_coefficients(strong_maps, f, pts, 2, 1)
    vals = [A for _, A in coeffs]
    assert vals[0] > 1e-4
    assert vals[1] == pytest.approx(0.0, abs=1e-15)


def test_asymptotic_reproduces_weighted_integral(tuned_maps):
    # int f^2 / DF^{nq} ~ sum_i A_i mu_i^{-n}: relative deviation shrinks in n
    p, q = 1, 1
    pts = cd.find_periodic_points(tuned_maps, p, q)
    f = lambda x: np.ones_like(np.asarray(x, dtype=float))
    coeffs = cd.asymptotic_coefficients(tuned_maps, f, pts, p, q)
    a1 = [pt for pt in pts if pt.kind == "attracting"][0].x
    Fa1 = float(tuned_maps.F(a1))

    def lhs(n):
        xs = np.linspace(a1, Fa1, 4097)
        _, mult = cd._g_and_multiplier(tuned_maps, xs, 0, n * q)
        from scipy.integrate import simpson
        return float(simpson(1.0 / mult, x=xs))

    devs = []
    for n in [5, 10, 15]:
        rhs = sum(A * pt.multiplier ** (-n) for pt, A in coeffs)
        devs.append(abs(lhs(n) - rhs) / rhs)
    assert devs[0] > devs[1] > devs[2]     # strictly decreasing in n
    assert devs[2] < 0.01


# the resonant scan motions sinusoidal(alpha, 0.14, 1), the two Fourier walls
# of test_growth_exponent_J_follows_the_orbit and the strong / tuned fixtures
_BASIN_CASES = [
    pytest.param({"profile": "sinusoidal", "alpha": alpha, "beta": 0.14, "period": 1.0},
                 p, q, id="sinusoidal-%.2f" % alpha)
    for alpha, p, q in ((0.30, 2, 3), (0.35, 15, 17), (0.40, 1, 1), (0.50, 1, 1),
                        (0.70, 4, 3), (0.80, 5, 3))
] + [
    pytest.param({"profile": "fourier", "mean": 1.0, "cos": [0.002, 0.02], "period": 1.0},
                 2, 1, id="fourier-2:1"),
    pytest.param({"profile": "fourier", "mean": 0.5, "cos": [0.0, 0.02], "period": 1.0},
                 1, 1, id="fourier-half-period"),
    pytest.param({"profile": "sinusoidal", "alpha": 1.0, "beta": 0.1, "period": 1.0},
                 2, 1, id="strong_maps"),
    pytest.param({"profile": "sinusoidal", "alpha": 0.5, "beta": 0.05, "period": 1.0},
                 1, 1, id="tuned_maps"),
]


def _assert_tiles(pieces, lo, hi):
    # disjoint pieces inside [lo, hi) whose lengths add up to hi - lo
    flat = sorted(iv for ivs in pieces for iv in ivs)
    assert flat[0][0] >= lo and flat[-1][1] <= hi
    assert all(b[0] >= a[1] - 1e-12 for a, b in zip(flat, flat[1:]))
    assert sum(b - a for a, b in flat) == pytest.approx(hi - lo, abs=1e-9)


@pytest.mark.parametrize("spec, p, q", _BASIN_CASES)
def test_basin_pieces_tile_the_fundamental_domain(monkeypatch, spec, p, q):
    maps = _maps(spec)
    pts = cd.find_periodic_points(maps, p, q)
    calls = []
    basin_pieces = cd._basin_pieces

    def recording(maps, points, lo, hi):
        calls.append((lo, hi, basin_pieces(maps, points, lo, hi)))
        return calls[-1][2]

    monkeypatch.setattr(cd, "_basin_pieces", recording)
    # the weight is not under test here, and l costs 5 s at 15:17
    monkeypatch.setattr(cd, "weight_l", lambda maps, x, mu_a, p, q: np.ones_like(x))
    _assert_tiles(cd.basin_intervals(maps, pts), -maps.a0, maps.a0)
    cd.asymptotic_coefficients(maps, lambda x: 0.0 * x, pts, p, q)
    # [a_1, F(a_1)) is the second domain the helper cut
    lo, hi, pieces = calls[1]
    a1 = [pt for pt in pts if pt.kind == "attracting"][0].x
    assert (lo, hi) == (a1, maps.F(a1))
    _assert_tiles(pieces, lo, hi)


@pytest.mark.parametrize("spec, p, q", _BASIN_CASES)
def test_asymptotic_coefficients_reuse_the_periodic_points(monkeypatch, spec, p, q):
    # the attractors on [a_1, F(a_1)) are those of I0 at or above a_1 and
    # the F-images of the others, with the multipliers of I0; no second scan
    maps = _maps(spec)
    pts = cd.find_periodic_points(maps, p, q)
    calls = []
    monkeypatch.setattr(cd, "find_periodic_points", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(cd, "weight_l", lambda maps, x, mu_a, p, q: np.ones_like(x))
    coeffs = cd.asymptotic_coefficients(maps, lambda x: 0.0 * x, pts, p, q)
    assert calls == []
    att = [pt for pt in pts if pt.kind == "attracting"]
    a1 = att[0].x
    expected = sorted((pt.x if pt.x >= a1 else maps.F(pt.x), pt.multiplier) for pt in att)
    assert [(pt.x, pt.multiplier) for pt, _ in coeffs] == expected
    assert all(pt.kind == "attracting" for pt, _ in coeffs)


def test_Sj_static_wall(static_maps):
    for j in [0, 1, 3]:
        val, err = cd.weighted_integral(static_maps, 0.7, j, panels=256)
        assert val == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("panels", [2, 3, 6, 7, 512])
def test_S0_is_interval_length(strong_maps, panels):
    # S_0 integrates 1, which Simpson's rule (with Cartwright's last interval
    # for an odd panel count) and the trapezoid of panels // 2 = 1 get exactly
    t = 0.3
    val, err = cd.weighted_integral(strong_maps, t, 0, panels=panels)
    assert val == pytest.approx(2.0 * float(strong_maps.motion.a(t)), rel=1e-8)
    assert err <= 1e-12
    with pytest.raises(ValueError):
        cd.weighted_integral(strong_maps, t, 0, panels=1)


def test_Sj_two_time_sandwich(strong_maps):
    m = strong_maps.motion
    t1 = 0.45
    t2 = t1 + 1.5 * m.a_min          # <= 2 a_min
    for j in [1, 2]:
        s1, _ = cd.weighted_integral(strong_maps, t1, j, panels=1024)
        s2, _ = cd.weighted_integral(strong_maps, t2, j, panels=1024)
        lo = strong_maps.dF_min**2 / strong_maps.dF_max * s1
        hi = strong_maps.dF_max**2 / strong_maps.dF_min * s1
        assert lo - 1e-9 <= s2 <= hi + 1e-9


def test_herman_bound_random_motions():
    # the 10x-refined estimate plays the role of rho and must sit inside
    # every coarse error bar
    rng = np.random.default_rng(2024)
    for m in random_validated_motions(rng, 8):
        maps = boundary.CharacteristicMaps(m)
        x0 = float(rng.uniform(-m.a0, m.a0))
        n = 400
        e1, h1 = cd.rotation_number(maps, n, x0)
        e2, _ = cd.rotation_number(maps, 10 * n, x0)
        assert abs(e1 - e2) <= h1


def test_analyze_map_pipeline(tuned_maps):
    analysis = cd.analyze_map(tuned_maps, rotation_iterations=50_000, max_q=10)
    assert analysis.status == "ok"
    assert analysis.resonance == (1, 1)
    assert analysis.gamma == pytest.approx(0.6503, abs=2e-3)
    assert analysis.m0_heuristic == pytest.approx(
        math.sqrt(analysis.gamma / tuned_maps.motion.a_max))
    d = analysis.to_dict()
    assert d["resonance"] == {"p": 1, "q": 1}
    assert len(d["periodic_points"]) == 2


def test_detect_resonance_wide_bar_half_integer_edge():
    # estimate exactly between integers with a bar wide enough to reach 1/1:
    # the candidate enumeration must not miss it to rounding direction
    with pytest.raises(cd.AmbiguousResonance):
        cd.detect_resonance(0.5, 0.6, 1.0, 3)
    assert cd.detect_resonance(0.5, 0.6, 1.0, 1) == (1, 1)


# find_periodic_points on the 15:17 motion sinusoidal(0.35, 0.14, 1), recorded
# with one safeguarded Newton polish per bracket: (x, DF^17(x)), repellers and
# attractors alternating from the left end of [-a(0), a(0))
_PERIODIC_15_17 = [
    (-0.34670962151929735, 1.30366220369598),
    (-0.3408194664933273, 0.7670698722139593),
    (-0.31975481031831604, 1.3036622036970256),
    (-0.3119298444681072, 0.7670698722145465),
    (-0.2981944534206357, 1.303662203695052),
    (-0.29552384994334535, 0.7670698722133201),
    (-0.2847885497737849, 1.3036622036982004),
    (-0.280266633971971, 0.7670698722138988),
    (-0.2715081034611622, 1.3036622036954166),
    (-0.2696713630625435, 0.7670698722132364),
    (-0.2617954202810184, 1.3036622036988996),
    (-0.2582222213048307, 0.7670698722135243),
    (-0.2508195526808899, 1.3036622036987322),
    (-0.2491804473191116, 0.7670698722134507),
    (-0.24177777869516295, 1.3036622036964955),
    (-0.23820457971899173, 0.7670698722139485),
    (-0.2303286369374548, 1.303662203698171),
    (-0.22849189653883742, 0.7670698722147217),
    (-0.21973336602803575, 1.3036622036980732),
    (-0.21521145022623292, 0.7670698722146291),
    (-0.20447615005664987, 1.3036622036974692),
    (-0.2018055465793489, 0.7670698722130835),
    (-0.18807015553190548, 1.3036622036971215),
    (-0.18024518968169861, 0.7670698722143552),
    (-0.15918053350666975, 1.3036622036964813),
    (-0.1532903784806742, 0.7670698722129166),
    (-0.11737906382443712, 1.3036622036965466),
    (-0.09099770095170545, 0.7670698722138478),
    (0.03146580402506015, 1.3036622036974637),
    (0.10038946502756028, 0.7670698722139453),
]

# the same points to 40 digits, written by bench/periodic_reference.py (mpmath
# Newton on F^17 - Id - 15 at 50 digits from each point above)
_PERIODIC_15_17_REFERENCE = [
    ("-0.3467096215193037201810808193973060724482", "1.303662203696811115884725025703419572248"),
    ("-0.3408194664933287664044119381041042613523", "0.7670698722140502115799810765796000715695"),
    ("-0.3197548103183139737864571402521241702829", "1.303662203696811115884725025703419572248"),
    ("-0.3119298444680979861733538333801079864899", "0.7670698722140502115799810765796000715695"),
    ("-0.298194453420642605868839166435322922096", "1.303662203696811115884725025703419572248"),
    ("-0.2955238499433514947327026557110289600118", "0.7670698722140502115799810765796000715695"),
    ("-0.2847885497737746335951239356394730962593", "1.303662203696811115884725025703419572248"),
    ("-0.2802666339719730195798249476519396344069", "0.7670698722140502115799810765796000715695"),
    ("-0.2715081034611663804833460604313743044524", "1.303662203696811115884725025703419572248"),
    ("-0.2696713630625486193319669251888704009015", "0.7670698722140502115799810765796000715695"),
    ("-0.2617954202810070468322878053282948747053", "1.303662203696811115884725025703419572248"),
    ("-0.2582222213048352214197831845017966617681", "0.7670698722140502115799810765796000715695"),
    ("-0.2508195526808853903303772654274531921286", "1.303662203696811115884725025703419572248"),
    ("-0.2491804473191146096696227345725468078714", "0.7670698722140502115799810765796000715695"),
    ("-0.2417777786951647785802168154982033382319", "1.303662203696811115884725025703419572248"),
    ("-0.2382045797189929531677121946717051252947", "0.7670698722140502115799810765796000715695"),
    ("-0.2303286369374513806680330748111295990985", "1.303662203696811115884725025703419572248"),
    ("-0.2284918965388336195166539395686256955476", "0.7670698722140502115799810765796000715695"),
    ("-0.2197333660280269804201750523480603655931", "1.303662203696811115884725025703419572248"),
    ("-0.2152114502262253664048760643605269037407", "0.7670698722140502115799810765796000715695"),
    ("-0.2044761500566485052672973442889710399882", "1.303662203696811115884725025703419572248"),
    ("-0.201805546579357394131160833564677077904", "0.7670698722140502115799810765796000715695"),
    ("-0.1880701555319020138266461666198920135101", "1.303662203696811115884725025703419572248"),
    ("-0.1802451896816860262135428597478758297171", "0.7670698722140502115799810765796000715695"),
    ("-0.1591805335066712335955880618958957386477", "1.303662203696811115884725025703419572248"),
    ("-0.1532903784806962798189191806026939275518", "0.7670698722140502115799810765796000715695"),
    ("-0.1173790638244740043068439494414656661045", "1.303662203696811115884725025703419572248"),
    ("-0.09099770095172427989749488126009498136611", "0.7670698722140502115799810765796000715695"),
    ("0.03146580402513678629529245646001426088206", "1.303662203696811115884725025703419572248"),
    ("0.1003894650275069342145187718742440469854", "0.7670698722140502115799810765796000715695"),
]


def test_periodic_points_15_17_pinned():
    maps = _maps({"profile": "sinusoidal", "alpha": 0.35, "beta": 0.14,
                  "period": 1.0})
    pts = cd.find_periodic_points(maps, 15, 17)
    assert len(pts) == len(_PERIODIC_15_17)
    for i, (pt, (x, mult)) in enumerate(zip(pts, _PERIODIC_15_17)):
        assert pt.kind == ("repelling" if i % 2 == 0 else "attracting")
        assert pt.x == pytest.approx(x, abs=1e-12)
        assert pt.multiplier == pytest.approx(mult, rel=1e-10)
    gamma = cd.growth_exponent(maps, pts, 15, 17)[0]
    assert gamma == pytest.approx(0.017678492246859225, rel=1e-12)


def test_periodic_points_15_17_reference():
    # bisection of every bracket, on inverses seeded by a linear table and
    # polished by Newton, read 9.0e-13 in x and 1.23e-10 in the multipliers
    # against these values; the Newton polish reads 7.7e-14 and 1.6e-12
    maps = _maps({"profile": "sinusoidal", "alpha": 0.35, "beta": 0.14,
                  "period": 1.0})
    pts = cd.find_periodic_points(maps, 15, 17)
    assert len(pts) == len(_PERIODIC_15_17_REFERENCE)
    for pt, (x, mult) in zip(pts, _PERIODIC_15_17_REFERENCE):
        assert pt.x == pytest.approx(float(x), abs=1e-12)
        assert pt.multiplier == pytest.approx(float(mult), rel=1e-10)


def test_periodic_points_15_17_calls():
    # one g for the domain's nodes, one for the nodes around the orbit
    # images, one for the multipliers, and the Newton polish of each scan;
    # bisecting every bracket to ROOT_TOL took 47 calls
    maps = _maps({"profile": "sinusoidal", "alpha": 0.35, "beta": 0.14,
                  "period": 1.0})
    calls = [0]
    g_and_multiplier = cd._g_and_multiplier

    def counting(*args):
        calls[0] += 1
        return g_and_multiplier(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cd, "_g_and_multiplier", counting)
        assert len(cd.find_periodic_points(maps, 15, 17)) == 30
    assert calls[0] <= 25


@pytest.mark.parametrize("spec, p, q, members", [
    # one attracting orbit of 15 points in I0, multipliers spread 1.5e-10
    ({"profile": "sinusoidal", "alpha": 0.35, "beta": 0.14, "period": 1.0},
     15, 17, list(range(15))),
    # 2:1 with two attracting orbits (mu 0.587 and 0.610); I0 = [-1.022,
    # 1.022) holds two translates of each, and J keeps those of the first
    ({"profile": "fourier", "mean": 1.0, "cos": [0.002, 0.02], "period": 1.0},
     2, 1, [0, 2]),
    # a(t + T/2) = a(t): two attracting orbits with one multiplier, both in J
    ({"profile": "fourier", "mean": 0.5, "cos": [0.0, 0.02], "period": 1.0},
     1, 1, [0, 1]),
])
def test_growth_exponent_J_follows_the_orbit(spec, p, q, members):
    maps = _maps(spec)
    pts = cd.find_periodic_points(maps, p, q)
    _, i0, intervals, J, _ = cd.growth_exponent(maps, pts, p, q)
    assert i0 in members
    assert J == sorted(iv for i in members for iv in intervals[i])


# ---------------------------------------------------------------------------
# periodic points from one fundamental domain
# ---------------------------------------------------------------------------

def _dense_scan_points(maps, p, q):
    """Reference: sign scan of F^q - Id - pT over all of [-a(0), a(0)] at the
    spacing find_periodic_points uses, every bracket bisected to 1e-12."""
    lo, hi = -maps.a0, maps.a0
    n = max(cd.SCAN_SAMPLES * q, 1024)
    xs = lo + (hi - lo) / n * np.arange(n + 1)
    g, _ = cd._g_and_multiplier(maps, xs, p, q)
    hits = xs[np.abs(g) <= 1e-13 * max(1.0, p * maps.T)]
    cross = np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)[0]
    a, fa = xs[cross], g[cross]
    b = a + (xs[1] - xs[0])
    while np.any(b - a > cd.ROOT_TOL):
        act = np.nonzero(b - a > cd.ROOT_TOL)[0]
        m = 0.5 * (a[act] + b[act])
        fm, _ = cd._g_and_multiplier(maps, m, p, q)
        left = fa[act] * fm <= 0.0
        b[act[left]] = m[left]
        a[act[~left]], fa[act[~left]] = m[~left], fm[~left]
    roots = sorted(r for r in np.concatenate([hits, 0.5 * (a + b)])
                   if lo - 1e-12 <= r < hi - 1e-10)
    roots = [r for i, r in enumerate(roots) if i == 0 or r - roots[i - 1] > 1e-10]
    _, mults = cd._g_and_multiplier(maps, np.asarray(roots), p, q)
    return roots, ["attracting" if m < 1.0 else "repelling" for m in mults]


def _assert_matches_dense_scan(maps, p, q):
    pts = cd.find_periodic_points(maps, p, q)
    roots, kinds = _dense_scan_points(maps, p, q)
    assert len(pts) == len(roots) > 0
    assert [pt.kind for pt in pts] == kinds
    for pt, r in zip(pts, roots):
        assert abs(pt.x - r) <= 1e-12
    return pts


def _shifted_maps(alpha, beta, s):
    """sinusoidal(alpha, beta, 1) started at time s, as a Fourier wall.  Its
    lift is y -> F(y + s) - s, so its periodic points are those of F moved
    by -s, and find_periodic_points scans [-a(s), a(s)) = [h(s) - s, k(s) - s)."""
    w = 2 * math.pi * s
    return _maps({"profile": "fourier", "mean": alpha, "cos": [beta * math.sin(w)],
                  "sin": [beta * math.cos(w)], "period": 1.0})


@pytest.mark.parametrize("alpha, p, q", [(0.35, 15, 17), (0.30, 2, 3), (0.70, 4, 3)])
def test_periodic_points_fundamental_domain_matches_dense_scan(alpha, p, q):
    maps = _maps({"profile": "sinusoidal", "alpha": alpha, "beta": 0.14,
                  "period": 1.0})
    pts = _assert_matches_dense_scan(maps, p, q)
    # s = h^{-1}(a_1) puts the attractor a_1 on lo = -a(s)
    a1 = next(pt.x for pt in pts if pt.kind == "attracting")
    shifted = _shifted_maps(alpha, 0.14, float(maps.h_inv(a1)))
    on_lo = _assert_matches_dense_scan(shifted, p, q)[0].x
    assert abs(on_lo + shifted.a0) <= 1e-12
    # a wall whose domain [lo, G(lo)) ends 1e-3 old grid spacings above a
    # root, inside the domain's last partial grid cell: h(s) = G^{-1}(x + 1e-3 dx)
    # with G^{-1} = F^{-r} + kT, r p = 1 (mod q), k = (r p - 1)/q
    r = pow(p, -1, q)
    k = (r * p - 1) // q
    lo = pts[0].x + 1e-3 * 2 * maps.a0 / (cd.SCAN_SAMPLES * q) + k * maps.T
    for _ in range(r):
        lo = maps.F_inv(lo)
    shifted = _shifted_maps(alpha, 0.14, float(maps.h_inv(lo)))
    top = -shifted.a0
    for _ in range(r):
        top = shifted.F(top)
    top -= k * shifted.T
    dx = 2 * shifted.a0 / (cd.SCAN_SAMPLES * q)
    gaps = [top - pt.x for pt in _assert_matches_dense_scan(shifted, p, q)]
    assert min(g for g in gaps if g > 0) < 0.01 * dx


def test_periodic_points_last_cell_scanned():
    # k(s) = x + 0.3 dx puts the last root x of the unshifted wall in the
    # last cell [hi - dx, hi) of the shifted one.  sinusoidal(0.5, 0.05, 1)
    # (repeller at -1/2, attractor at 0) scans all nodes at once; the 2:3
    # wall's domain is shorter than [lo, hi), so the one-domain pass has to
    # reach the last cell through the orbit images
    for alpha, beta, p, q in [(0.5, 0.05, 1, 1), (0.30, 0.14, 2, 3)]:
        maps = _maps({"profile": "sinusoidal", "alpha": alpha, "beta": beta,
                      "period": 1.0})
        x = cd.find_periodic_points(maps, p, q)[-1].x
        s = float(maps.k_inv(x + 0.3 * 2 * maps.a0 / (cd.SCAN_SAMPLES * q)))
        shifted = _shifted_maps(alpha, beta, s)
        last = _assert_matches_dense_scan(shifted, p, q)[-1].x
        dx = 2 * shifted.a0 / (cd.SCAN_SAMPLES * q)
        assert shifted.a0 - dx < last < shifted.a0
        assert last == pytest.approx(x - s, abs=1e-12)


def test_periodic_points_15_17_scans_one_domain():
    # a scan of all 170 000 nodes passes 17 * 170 000 points through F
    maps = _maps({"profile": "sinusoidal", "alpha": 0.35, "beta": 0.14,
                  "period": 1.0})
    points = [0]
    F_and_dF = maps.F_and_dF

    def counting(x):
        points[0] += np.size(x)
        return F_and_dF(x)

    maps.F_and_dF = counting
    assert len(cd.find_periodic_points(maps, 15, 17)) == 30
    assert points[0] <= 0.1 * 17 * 170_000


# ---------------------------------------------------------------------------
# analyze_map: resonant rotation numbers certified by their periodic orbit
# ---------------------------------------------------------------------------

def _full_orbit_reference(maps, n, max_q):
    """F^n(0)/n, its resonance and the analysis built from it."""
    est = maps.orbit_translation(0.0, n)[-1] / n
    ref = {"est": est, "resonance": cd.detect_resonance(est, maps.T / n, maps.T, max_q),
           "points": [], "gamma": None, "J": []}
    if ref["resonance"] is None:
        ref["status"] = "no_resonance"
        return ref
    p, q = ref["resonance"]
    try:
        ref["points"] = cd.find_periodic_points(maps, p, q)
    except cd.DegenerateMap:
        ref["status"] = "DegenerateMap"
        return ref
    except cd.NeutralPoint as exc:
        ref["status"] = "NeutralPoint at x=%.12g" % exc.x
        return ref
    if not ref["points"]:
        ref["status"] = "no_periodic_points"
        return ref
    ref["gamma"], _, _, ref["J"], _ = cd.growth_exponent(maps, ref["points"], p, q)
    ref["status"] = "ok"
    return ref


@pytest.mark.parametrize("alpha, beta", [
    (0.30, 0.14), (0.35, 0.14), (0.36, 0.14), (0.40, 0.14), (0.50, 0.14),
    (0.66, 0.14), (0.70, 0.14), (0.80, 0.14),
    (0.5, 0.004), (0.5, 0.01), (0.5, 0.02), (0.5, 0.03), (0.5, 0.06), (0.5, 0.1),
])
def test_analyze_map_certificate_matches_full_orbit(alpha, beta):
    maps = _maps({"profile": "sinusoidal", "alpha": alpha, "beta": beta,
                  "period": 1.0})
    n = 100_000
    analysis = cd.analyze_map(maps, rotation_iterations=n, max_q=20)
    ref = _full_orbit_reference(maps, n, 20)
    assert analysis.resonance == ref["resonance"]
    assert analysis.status == ref["status"]
    assert analysis.periodic_points == ref["points"]
    assert analysis.gamma == ref["gamma"]
    assert analysis.J == ref["J"]
    assert analysis.rotation_half_width == maps.T / n
    assert analysis.rotation_iterations == n
    # alpha = 0.66 is quasi-periodic: it takes the estimate of the orbit's
    # bracket, and the bracket of all n steps lies within T/n of it.  The
    # tongue edge 0.36 is certified by its neutral point
    fallback = alpha == 0.66
    assert analysis.rotation_certified is not fallback
    assert analysis.to_dict()["rotation_certified"] is not fallback
    if fallback:
        _, lo, hi = farey_bracket(maps, n)
        est, bar = Fraction(analysis.rotation_estimate), Fraction(maps.T) / n
        assert est - bar <= lo * Fraction(maps.T) and hi * Fraction(maps.T) <= est + bar
    else:
        p, q = analysis.resonance
        assert analysis.rotation_estimate == p * maps.T / q


def test_analyze_map_fallback_scans_once(monkeypatch):
    # the short orbit proposes 1:1, the scan finds no root, and the n-step
    # orbit detects 1:1 again: its scan is reused.  Just outside the tongue
    # edge 0.36, alpha + beta < T/2 keeps F - Id below T, so no fixed point
    # of F - T exists, while the orbit passes the bottleneck at -0.25 only
    # once in n steps (alpha = 0.36 - 1e-9 passes it three times, and the
    # n-step bar excludes 1:1)
    maps = _maps({"profile": "sinusoidal", "alpha": 0.36 - 1e-10, "beta": 0.14,
                  "period": 1.0})
    calls = []
    find = cd.find_periodic_points

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return find(*args, **kwargs)

    monkeypatch.setattr(cd, "find_periodic_points", counting)
    analysis = cd.analyze_map(maps, rotation_iterations=100_000, max_q=20)
    assert analysis.status == "no_periodic_points"
    assert not analysis.rotation_certified
    assert calls == [(1, 1)]


def test_analyze_map_certificate_needs_n_above_two_max_q_squared():
    # 2 max_q^2 >= n: a second fraction could fit the n-step bar, so the
    # n-step orbit runs; one q less and the periodic orbit certifies 1:1
    maps = _maps({"profile": "sinusoidal", "alpha": 0.5, "beta": 0.05,
                  "period": 1.0})
    n = 5000
    full = cd.analyze_map(maps, rotation_iterations=n, max_q=50)
    est, _ = cd.rotation_number(maps, n)
    assert not full.rotation_certified
    assert float.hex(full.rotation_estimate) == float.hex(est)
    cert = cd.analyze_map(maps, rotation_iterations=n, max_q=49)
    assert cert.rotation_certified
    assert cert.rotation_estimate == maps.T
    assert cert.resonance == full.resonance == (1, 1)
    assert cert.periodic_points == full.periodic_points
