import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from kgcavity import boundary, circle_dynamics as cd
from kgcavity.boundary import (CharacteristicMaps, NoConvergence, RejectedMotion,
                               fourier_profile, make_motion, validate_motion,
                               sinusoidal_profile)

from conftest import random_validated_motions


def test_constant_profile_accepted():
    m = make_motion({"profile": "constant", "alpha": 1.0, "period": 1.0})
    assert m.a_min == pytest.approx(1.0, abs=1e-12)
    assert m.a_max == pytest.approx(1.0, abs=1e-12)


def test_sinusoidal_accepted_with_correct_velocity_bound():
    m = make_motion({"profile": "sinusoidal", "alpha": 1.0, "beta": 0.1,
                     "period": 1.0})
    assert m.da_max == pytest.approx(0.2 * math.pi, rel=1e-9)
    assert m.a_min == pytest.approx(0.9, rel=1e-9)
    assert m.a_max == pytest.approx(1.1, rel=1e-9)


def test_superluminal_rejected():
    with pytest.raises(RejectedMotion):
        make_motion({"profile": "sinusoidal", "alpha": 0.5, "beta": 0.4,
                     "period": 1.0})


def test_nonpositive_rejected():
    with pytest.raises(RejectedMotion):
        make_motion({"profile": "sinusoidal", "alpha": 0.1, "beta": 0.12,
                     "period": 1.0})
    with pytest.raises(RejectedMotion):
        make_motion({"profile": "constant", "alpha": 1.0, "period": -1.0})


def test_fourier_profile_extrema_refined():
    # high harmonic: extrema fall between coarse samples unless refined
    m = make_motion({"profile": "fourier", "mean": 1.0, "cos": [],
                     "sin": [0.0, 0.0, 0.05], "period": 1.0})
    # a = 1 + 0.05 sin(6 pi t): sup|a'| = 0.3 pi
    assert m.da_max == pytest.approx(0.3 * math.pi, rel=1e-6)


def test_h_inverse_static_wall(static_maps):
    assert static_maps.h_inv(0.0) == pytest.approx(1.0, abs=1e-12)
    assert static_maps.k_inv(3.0) == pytest.approx(2.0, abs=1e-12)


def test_h_inverse_against_bisection_oracle(strong_maps):
    # bisection to 1e-14 as the independent oracle
    motion = strong_maps.motion

    def bisect(y):
        lo, hi = y + motion.a_min - 1e-6, y + motion.a_max + 1e-6
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if mid - float(motion.a(mid)) - y > 0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    for y in [-0.7, 0.0, 0.3, 2.1, 5.9]:
        assert strong_maps.h_inv(y) == pytest.approx(bisect(y), abs=1e-10)


def test_inverse_residual_contract(strong_maps):
    y = np.linspace(-5, 25, 4001)
    t = strong_maps.h_inv(y)
    res = np.abs(t - np.asarray(strong_maps.motion.a(t)) - y)
    assert np.all(res <= 1e-12 * (1 + np.abs(y)))
    t = strong_maps.k_inv(y)
    res = np.abs(t + np.asarray(strong_maps.motion.a(t)) - y)
    assert np.all(res <= 1e-12 * (1 + np.abs(y)))


_SCALAR_PROFILES = [
    {"profile": "constant", "alpha": 0.7, "period": 1.3},
    {"profile": "sinusoidal", "alpha": 1.0, "beta": 0.1, "period": 1.0},
    {"profile": "fourier", "mean": 0.5, "cos": [-0.00315827, 0.0024102],
     "sin": [-0.00497221, 0.0, 0.02], "period": 1.2},
]


@pytest.mark.parametrize("spec", _SCALAR_PROFILES, ids=lambda s: s["profile"])
def test_scalar_inverse_contract(spec, monkeypatch):
    # a Python float takes the scalar inverse; it must keep the array path's
    # return type, residual and values
    maps = CharacteristicMaps(make_motion(spec))
    a = maps.motion.a
    ys = np.linspace(-3.0 * maps.T, 30.0 * maps.T, 997)
    for fn in (maps.h_inv, maps.k_inv, maps.F, maps.F_inv):
        scalar = [fn(y) for y in ys.tolist()]
        assert all(type(v) is float for v in scalar)
        assert np.all(np.abs(np.array(scalar) - fn(ys)) <= 1e-11 * (1.0 + np.abs(ys)))
    for fn, sign in ((maps.h_inv, -1.0), (maps.k_inv, 1.0)):
        for y in ys.tolist():
            t = fn(y)
            assert abs(t + sign * float(a(t)) - y) <= maps.inv_tol * (1.0 + abs(y))
    monkeypatch.setattr(maps, "inv_tol", -1.0)
    with pytest.raises(boundary.NoConvergence):
        maps.F_inv(0.3)
    with pytest.raises(boundary.NoConvergence):
        maps.orbit_translation(0.3, 5)
    with pytest.raises(boundary.NoConvergence):
        maps.F_inv(np.array([0.3]))


@pytest.mark.parametrize("spec", [
    {"profile": "sinusoidal", "alpha": 0.5, "beta": 0.012, "period": 1.0},
    {"profile": "sinusoidal", "alpha": 0.36, "beta": 0.14, "period": 1.0},
    {"profile": "sinusoidal", "alpha": 0.5, "beta": 0.155, "period": 1.0},
    _SCALAR_PROFILES[2]], ids=["example", "sinusoidal-0.36", "sinusoidal-0.5", "fourier"])
def test_scalar_and_array_maps_agree(spec):
    # both paths evaluate the one Hermite seed with the same operations, a
    # and a_scalar round alike, and a miss takes the one Newton: same bits
    maps = CharacteristicMaps(make_motion(spec))
    x = np.linspace(-30.0, 30.0, 20_000)
    for fn in (maps.F, maps.F_inv, maps.h_inv, maps.k_inv):
        scalar = np.array([fn(v) for v in x.tolist()])
        assert np.array_equal(scalar, fn(x))


_FOURIER_3 = (0.5, [-0.00315827, 0.0024102], [-0.00497221, 0.0, 0.02], 1.2)
_FOURIER_4 = (1.0, [0.03, -0.02, 0.01], [0.02, 0.015, -0.01, 0.005], 1.0)


@pytest.mark.parametrize("wall", [
    boundary.constant_profile(0.7),
    sinusoidal_profile(0.5, 0.012, 1.0),
    fourier_profile(*_FOURIER_3),
    fourier_profile(*_FOURIER_4),
], ids=["constant", "example", "fourier-3", "fourier-4"])
def test_wall_scalar_matches_array(wall):
    # the profile contract: a_scalar has a's bits, point by point
    t = np.linspace(-7.0, 31.0, 4001)
    assert [wall.a_scalar(v) for v in t.tolist()] == wall.a(t).tolist()


class _ContractWall:
    """A wall with only the attributes the profile contract names."""

    kind = "contract"

    def __init__(self):
        self._wall = sinusoidal_profile(1.0, 0.1, 1.0)

    def a(self, t):
        return self._wall.a(t)

    def da(self, t):
        return self._wall.da(t)

    def dda(self, t):
        return self._wall.dda(t)

    def a_scalar(self, t):
        return self._wall.a_scalar(t)

    def describe(self):
        return {"profile": self.kind}


def test_maps_need_only_the_profile_contract(monkeypatch):
    # scalar and array F_inv and orbit_translation run on the contract, also
    # through a forced Newton fallback, which then ends in NoConvergence
    maps = CharacteristicMaps(validate_motion(_ContractWall(), 1.0))
    ref = CharacteristicMaps(validate_motion(sinusoidal_profile(1.0, 0.1, 1.0), 1.0))
    x = np.linspace(-5.0, 25.0, 401)
    assert np.array_equal(maps.F_inv(x), ref.F_inv(x))
    assert [maps.F_inv(v) for v in x.tolist()] == ref.F_inv(x).tolist()
    assert maps.orbit_translation(0.3, 200) == ref.orbit_translation(0.3, 200)
    monkeypatch.setattr(maps, "inv_tol", -1.0)
    for call in (lambda: maps.F_inv(0.3), lambda: maps.F_inv(np.array([0.3])),
                 lambda: maps.orbit_translation(0.3, 5)):
        with pytest.raises(NoConvergence):
            call()


@pytest.mark.parametrize("spec", _SCALAR_PROFILES, ids=lambda s: s["profile"])
def test_scalar_lift_same_bits_for_every_scalar_type(spec):
    # a float and an np.float64 pass the type test, a 0-d array np.ndim;
    # all three take the scalar inverse and return the same float
    maps = CharacteristicMaps(make_motion(spec))
    for fn in (maps.F, maps.F_inv):
        for y in np.linspace(-3.0 * maps.T, 30.0 * maps.T, 97).tolist():
            got = [fn(x) for x in (y, np.float64(y), np.array(y))]
            assert all(type(v) is float for v in got)
            assert len({v.hex() for v in got}) == 1


def _counting_arrays(cls, *args):
    """A ``cls(*args)`` wall counting its array a and a' evaluations."""

    class Counting(cls):
        def a(self, t):
            self.calls["a"] += 1
            return super().a(t)

        def da(self, t):
            self.calls["da"] += 1
            return super().da(t)

    prof = Counting(*args)
    prof.calls = {"a": 0, "da": 0}
    return prof


@pytest.mark.parametrize("cls, args", [
    (sinusoidal_profile, (0.35, 0.14, 1.0)),
    (sinusoidal_profile, (0.5, 0.155, 1.0)),      # sup|a'| = 0.97
    (fourier_profile, _FOURIER_3),
    (fourier_profile, _FOURIER_4),
], ids=["sinusoidal-0.35", "sinusoidal-0.5", "fourier-3", "fourier-4"])
def test_array_lift_step_evaluations(cls, args):
    # the Hermite seed meets the residual test, so a lift step on an array
    # evaluates a once (the residual's, reused for the step) and a' once
    prof = _counting_arrays(cls, *args)
    maps = CharacteristicMaps(validate_motion(prof, args[-1]))
    x = np.linspace(-3.0, 30.0, 20_001)
    for fn in (maps.F_and_dF, maps.F_inv_and_dF):
        prof.calls = {"a": 0, "da": 0}
        fn(x)
        assert prof.calls == {"a": 1, "da": 1}
    for fn in (maps.F, maps.F_inv, maps.h_inv, maps.k_inv):
        prof.calls = {"a": 0, "da": 0}
        fn(x)
        assert prof.calls == {"a": 1, "da": 0}


def _count_newton(maps, monkeypatch):
    """The sizes of the arrays passed to ``maps._newton``, as it is called."""
    newton, sizes = maps._newton, []

    def counting(y, sign, t):
        sizes.append(y.size)
        return newton(y, sign, t)

    monkeypatch.setattr(maps, "_newton", counting)
    return sizes


def _corrupt_seed(maps, monkeypatch):
    """Put every other cell's constant term of both seed tables off by 1e-4."""
    monkeypatch.setattr(maps, "_hermite", tuple(
        (nodes, coef[:-1] + (coef[-1] + 1e-4 * (np.arange(coef[-1].size) % 2),))
        for nodes, coef in maps._hermite))


def test_array_inverse_falls_back_on_corrupted_seed(strong_maps, monkeypatch):
    # every other cell's constant term off by 1e-4: those points miss the
    # residual test and go through Newton, the others keep their seed
    maps = CharacteristicMaps(strong_maps.motion)
    _corrupt_seed(maps, monkeypatch)
    missed = _count_newton(maps, monkeypatch)
    y = np.linspace(-5.0, 25.0, 4001)
    a = maps.motion.a
    for name, sign in (("h_inv", -1.0), ("k_inv", 1.0)):
        t = getattr(maps, name)(y)
        assert np.all(np.abs(t + sign * a(t) - y) <= maps.inv_tol * (1.0 + np.abs(y)))
        assert np.max(np.abs(t - getattr(strong_maps, name)(y))) <= 1e-11
    assert len(missed) == 2 and all(1000 < n < 3000 for n in missed)
    F, dF = maps.F_and_dF(y)
    F0, dF0 = strong_maps.F_and_dF(y)
    assert np.max(np.abs(F - F0)) <= 1e-11
    assert np.max(np.abs(dF / dF0 - 1.0)) <= 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises_without_warnings(strong_maps, bad):
    # every entry point, on arrays and on each scalar type, raises
    # NoConvergence with warnings as errors, so without a floating-point warning
    m = strong_maps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (m.h_inv, m.k_inv, m.F, m.F_inv, m.F_and_dF, m.F_inv_and_dF):
            for x in (np.array([0.3, bad, 1.7]), bad, np.float64(bad), np.array(bad)):
                with pytest.raises(NoConvergence):
                    fn(x)
        with pytest.raises(NoConvergence):
            m.orbit_translation(bad, 3)


def test_F_static_translation(static_maps):
    x = np.linspace(-3, 3, 101)
    assert np.allclose(static_maps.F(x), x + 2.0, atol=1e-12)
    assert np.allclose(static_maps.F_and_dF(x)[1], 1.0, atol=1e-12)


def test_F_inverse_identity(strong_maps):
    rng = np.random.default_rng(11)
    x = rng.uniform(-5, 10, 1000)
    assert np.max(np.abs(strong_maps.F_inv(strong_maps.F(x)) - x)) <= 1e-10


def test_dF_finite_difference(strong_maps):
    h = 1e-6
    for x in [0.0, 0.37, 1.9, -0.8]:
        fd = (strong_maps.F(x + h) - strong_maps.F(x - h)) / (2 * h)
        d = strong_maps.F_and_dF(x)[1]
        assert abs(fd - d) / d <= 1e-6


def test_lift_property(strong_maps):
    rng = np.random.default_rng(5)
    x = rng.uniform(-10, 10, 1000)
    T = strong_maps.T
    assert np.max(np.abs(strong_maps.F(x + T) - strong_maps.F(x) - T)) <= 1e-10


def test_monotonicity_and_velocity_transfer(strong_maps):
    x = np.linspace(-2, 6, 5000)
    Fx = np.asarray(strong_maps.F(x))
    assert np.all(np.diff(Fx) > 0)
    d = np.asarray(strong_maps.F_and_dF(x)[1])
    assert np.all(d > 0)
    assert np.all(d >= strong_maps.dF_min - 1e-12)
    assert np.all(d <= strong_maps.dF_max + 1e-12)


def test_step_identity(strong_maps):
    # eta - F^{-1}(eta) = 2 a(k^{-1}(eta)) within [2 a_min, 2 a_max]
    eta = np.linspace(-3, 9, 2000)
    step = eta - np.asarray(strong_maps.F_inv(eta))
    m = strong_maps.motion
    assert np.all(step >= 2 * m.a_min - 1e-10)
    assert np.all(step <= 2 * m.a_max + 1e-10)
    tk = strong_maps.k_inv(eta)
    assert np.allclose(step, 2 * np.asarray(m.a(tk)), atol=1e-10)


def test_random_motions_map_identities():
    rng = np.random.default_rng(42)
    for m in random_validated_motions(rng, 5):
        maps = CharacteristicMaps(m)
        x = rng.uniform(-3, 3, 200)
        assert np.max(np.abs(maps.F_inv(maps.F(x)) - x)) <= 1e-10
        assert np.max(np.abs(maps.F(x + m.period) - maps.F(x) - m.period)) <= 1e-10


@pytest.mark.parametrize("spec", _SCALAR_PROFILES + [
    {"profile": "sinusoidal", "alpha": 0.66, "beta": 0.14, "period": 1.0}],
    ids=lambda s: "%s-%g" % (s["profile"], s.get("alpha", s.get("mean"))))
def test_orbit_translation_matches_repeated_F(spec):
    # each orbit step is the scalar F, so from 0 the translations are the
    # orbit points bit for bit
    maps = CharacteristicMaps(make_motion(spec))
    orbit = [0.0]
    for _ in range(2000):
        orbit.append(maps.F(orbit[-1]))
    assert maps.orbit_translation(0.0, 2000) == orbit[1:]


class _CountingSinusoid(sinusoidal_profile):
    """sinusoidal_profile counting its scalar a evaluations (``evals``)."""

    evals = 0

    def a_scalar(self, t):
        self.evals += 1
        return super().a_scalar(t)


@pytest.mark.parametrize("alpha", [0.30, 0.35, 0.36, 0.40, 0.50, 0.66, 0.70, 0.80])
def test_orbit_translation_one_evaluation_per_step(alpha, monkeypatch):
    # every motion of the benchmark scan (beta = 0.14, sup|a'| = 0.88): a
    # step's seed meets the residual test, whose a(t) is the step, so no step
    # needs Newton
    prof = _CountingSinusoid(alpha, 0.14, 1.0)
    maps = CharacteristicMaps(validate_motion(prof, 1.0))
    newton = _count_newton(maps, monkeypatch)
    prof.evals = 0
    n = 5000
    maps.orbit_translation(0.0, n)
    assert (prof.evals, newton) == (n, [])


def test_scalar_inverse_falls_back_on_corrupted_seed(strong_maps, monkeypatch):
    # the scalar form of test_array_inverse_falls_back_on_corrupted_seed: the
    # points in a corrupted cell take Newton on a one-point array and end on
    # the uncorrupted values and on the array path's bits; the others
    # evaluate a once
    prof = _CountingSinusoid(1.0, 0.1, 1.0)
    maps = CharacteristicMaps(validate_motion(prof, 1.0))
    _corrupt_seed(maps, monkeypatch)
    newton = _count_newton(maps, monkeypatch)
    a = sinusoidal_profile(1.0, 0.1, 1.0).a_scalar
    ys = np.linspace(-5.0, 25.0, 4001)
    for name, sign in (("h_inv", -1.0), ("k_inv", 1.0)):
        array = getattr(maps, name)(ys).tolist()
        newton.clear()
        for i, y in enumerate(ys.tolist()):
            prof.evals, misses = 0, len(newton)
            t = getattr(maps, name)(y)
            assert abs(t + sign * a(t) - y) <= maps.inv_tol * (1.0 + abs(y))
            assert abs(t - getattr(strong_maps, name)(y)) <= 1e-11
            assert t == array[i]
            if len(newton) == misses:
                assert prof.evals == 1
        assert set(newton) == {1} and 1000 < len(newton) < 3000
    for y in np.linspace(-5.0, 25.0, 97).tolist():
        assert abs(maps.F(y) - strong_maps.F(y)) <= 1e-11
        assert abs(maps.F_inv(y) - strong_maps.F_inv(y)) <= 1e-11


def test_first_scalar_inverse_memory():
    # the scalar seed's node lists and row views, made on the first scalar
    # inverse, take about 67 KB
    maps = CharacteristicMaps(make_motion(
        {"profile": "sinusoidal", "alpha": 0.36, "beta": 0.14, "period": 1.0}))
    tracemalloc.start()
    try:
        maps.F(0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100_000


# rotation_number(maps, 1e5) and detect_resonance(max_q = 20) on the benchmark
# scan motions sinusoidal(alpha, 0.14, 1), recorded as F^n(0)/n with the
# Newton guess t + 2a/(1 - a') that the table seed replaced
_ROTATION_RECORD = [
    (0.30, 0.6666678295744496, (2, 3)),
    (0.35, 0.8823568807016382, (15, 17)),
    (0.36, 0.9999975000184002, (1, 1)),
    (0.40, 0.9999987337585698, (1, 1)),
    (0.50, 0.9999999999999915, (1, 1)),
    (0.66, 1.172775644729518, None),
    (0.70, 1.3333321704255567, (4, 3)),
    (0.80, 1.6666652173394958, (5, 3)),
]
# the bracket [lo, hi] on rho/T where the orbit's walk stops, and the
# estimate: its midpoint, or F^n(0)/n at 0.50, whose orbit starts on the
# fixed point, so that no step counts for the bracket
_ROTATION_BRACKET = {
    0.30: (Fraction(2, 3), Fraction(11263, 16894), 0.666676532102127),
    0.35: (Fraction(2707, 3068), Fraction(15, 17), 0.8823433545517294),
    0.36: (Fraction(50175, 50176), Fraction(1), 0.9999900350765306),
    0.40: (Fraction(50175, 50176), Fraction(1), 0.9999900350765306),
    0.50: (None, None, 1.0),
    0.66: (Fraction(224, 191), Fraction(543, 463), 1.1727805231078896),
    0.70: (Fraction(22525, 16894), Fraction(4, 3), 1.333323467897873),
    0.80: (Fraction(5, 3), Fraction(28157, 16894), 1.666676532102127),
}


@pytest.mark.parametrize("alpha, rho, res", _ROTATION_RECORD)
def test_rotation_number_matches_record(alpha, rho, res):
    maps = CharacteristicMaps(make_motion({"profile": "sinusoidal", "alpha": alpha,
                                           "beta": 0.14, "period": 1.0}))
    n = 100_000
    lo, hi, pinned = _ROTATION_BRACKET[alpha]
    assert cd.rotation_bracket(maps, n) == (pinned, lo, hi)
    est, hw = cd.rotation_number(maps, n)
    assert est == pinned
    # both are within T/n of rho
    assert abs(est - rho) <= 2.0 * maps.T / n
    assert cd.detect_resonance(est, hw, maps.T, 20) == res
