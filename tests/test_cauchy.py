import numpy as np
import pytest

from kgcavity import boundary, cauchy, circle_dynamics as cd

from conftest import random_validated_motions


def test_zero_data_all_pass(strong_maps):
    rep = cauchy.check_compatibility(cauchy.zero_data(1.0), strong_maps.motion)
    assert rep.all_passed


def test_linear_data_fails_endpoint(strong_maps):
    a0 = strong_maps.a0
    lin = cauchy.CauchyData(
        phi0=lambda x: np.asarray(x, dtype=float),
        phi1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        dphi0=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        ddphi0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        dphi1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        a0=a0,
        int_phi1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        kinks=())
    rep = cauchy.check_compatibility(lin, strong_maps.motion)
    assert not rep.passed[1]          # phi0(a(0)) = a0 != 0
    assert rep.residuals[1] == pytest.approx(a0)


def test_sine_fails_velocity_condition(strong_maps):
    # phi0 = sin(pi x / a0), phi1 = 0, a'(0) != 0: condition 4 fails
    motion = strong_maps.motion
    data = cauchy.make_eigenmode(motion.a0, 1, 1.0)
    rep = cauchy.check_compatibility(data, motion)
    da0 = float(motion.da(0.0))
    assert abs(da0) > 0
    expected = da0 * (-np.pi / motion.a0) * np.cos(np.pi)
    assert rep.residuals[3] == pytest.approx(float(da0 * data.dphi0(motion.a0)))
    assert not rep.passed[3]
    assert abs(rep.residuals[3]) == pytest.approx(abs(expected), rel=1e-12)


def test_bump_compatibility_random_triples():
    rng = np.random.default_rng(99)
    motions = random_validated_motions(rng, 10)
    checked = 0
    while checked < 100:
        m = motions[checked % len(motions)]
        w = float(rng.uniform(0.05, 0.3)) * m.a0
        c = float(rng.uniform(w * 1.05, m.a0 - 1.05 * w))
        direction = ["left", "right", "standing"][checked % 3]
        data = cauchy.make_bump(m.a0, c, w, float(rng.uniform(0.1, 2.0)), direction)
        rep = cauchy.check_compatibility(data, m, tolerance=1e-12)
        assert rep.all_passed
        checked += 1


def test_bump_out_of_range():
    with pytest.raises(cauchy.BumpOutOfRange):
        cauchy.make_bump(1.0, 0.1, 0.2, 1.0, "right")
    with pytest.raises(cauchy.BumpOutOfRange):
        cauchy.make_bump(1.0, 0.9, 0.15, 1.0, "left")


@pytest.mark.parametrize("width", [0.0, -0.1])
def test_bump_needs_positive_width(width):
    # a zero width would divide by zero in dphi0, and a negative one would
    # be read as |width| with its kinks reversed
    with pytest.raises(cauchy.BumpOutOfRange, match="width must be positive"):
        cauchy.make_bump(1.0, 0.5, width, 1.0, "right")


def test_bump_zero_amplitude_is_zero_data():
    data = cauchy.make_bump(1.0, 0.5, 0.25, 0.0, "right")
    x = np.linspace(0, 1, 100)
    assert np.all(data.phi0(x) == 0.0)
    assert np.all(data.phi1(x) == 0.0)


def test_bump_is_C2_at_support_edges():
    data = cauchy.make_bump(1.0, 0.5, 0.25, 1.3, "standing")
    h = 1e-4
    for edge in (0.25, 0.75):
        inner = (data.phi0(edge + np.sign(0.5 - edge) * 2 * h)
                 - 2 * data.phi0(edge + np.sign(0.5 - edge) * h)
                 + data.phi0(edge))
        assert abs(float(inner) / h**2) <= np.abs(
            data.ddphi0(edge + np.sign(0.5 - edge) * 2 * h)) + 0.2
        # one-sided second differences from outside are exactly zero
        outer_x = edge - np.sign(0.5 - edge) * np.array([0.0, h, 2 * h])
        vals = data.phi0(outer_x)
        assert np.allclose(vals, 0.0, atol=1e-15)
    # finite-difference second derivative matches ddphi0 up to h^2 phi'''' / 12
    xs = np.linspace(0.3, 0.7, 41)
    fd = (data.phi0(xs + h) - 2 * data.phi0(xs) + data.phi0(xs - h)) / h**2
    assert np.max(np.abs(fd - data.ddphi0(xs))) <= 1e-3


def test_hypothesis_J_zero_data(tuned_maps):
    analysis = cd.analyze_map(tuned_maps, rotation_iterations=20_000)
    norm = cauchy.check_hypothesis_J(cauchy.zero_data(0.5), analysis)
    assert norm == 0.0


def test_hypothesis_J_bump_inside(tuned_maps):
    analysis = cd.analyze_map(tuned_maps, rotation_iterations=20_000)
    data = cauchy.make_bump(0.5, 0.25, 0.1, 1.0, "right")
    assert cauchy.check_hypothesis_J(data, analysis) > 0.1


def test_hypothesis_J_missing_analysis():
    class Empty:
        J = []
    with pytest.raises(cauchy.MissingAnalysis):
        cauchy.check_hypothesis_J(cauchy.zero_data(1.0), Empty())


def test_hypothesis_J_complement_support():
    # three attractors with distinct multipliers: J covers only the basin of
    # the strongest one, and its reflection leaves a free window on the
    # positive axis; a bump supported there has zero norm on J
    m = boundary.make_motion({"profile": "fourier", "mean": 0.5,
                              "cos": [-0.00315827, 0.0024102],
                              "sin": [-0.00497221, 0.0, 0.02],
                              "period": 1.0})
    maps = boundary.CharacteristicMaps(m)
    analysis = cd.analyze_map(maps, rotation_iterations=50_000)
    assert analysis.status == "ok"
    att = [p for p in analysis.periodic_points if p.kind == "attracting"]
    assert len(att) >= 3
    mults = sorted(p.multiplier for p in att)
    assert mults[1] - mults[0] > 1e-4      # distinct multipliers
    # verified: J = (-0.4978, -0.1576); both J and -J avoid (0, 0.157)
    free_hi = min(abs(v) for iv in analysis.J for v in iv)
    assert free_hi > 0.12
    c, w = 0.45 * free_hi, 0.3 * free_hi
    data = cauchy.make_bump(m.a0, c, w, 1.0, "standing")
    assert cauchy.check_hypothesis_J(data, analysis) == pytest.approx(0.0, abs=1e-14)
    # the same bump inside J's reflection has positive norm
    data2 = cauchy.make_bump(m.a0, 0.3, 0.1, 1.0, "standing")
    assert cauchy.check_hypothesis_J(data2, analysis) > 1e-3


def test_tabulated_roundtrip(tmp_path, static_maps):
    # write a table of the bump data and reload it
    data = cauchy.make_bump(1.0, 0.5, 0.25, 1.0, "standing")
    xs = np.linspace(0.0, 1.0, 201)
    path = tmp_path / "data.txt"
    with open(path, "w") as fh:
        fh.write("[phi0]\n")
        for x, v in zip(xs, data.phi0(xs)):
            fh.write("%.17g %.17g\n" % (x, v))
        fh.write("[phi1]\n")
        for x in xs:
            fh.write("%.17g 0.0\n" % x)
        fh.write("[derivatives]\n")
        fh.write("phi0_prime_0 = 0.0\nphi0_prime_a = 0.0\n")
        fh.write("phi0_second_0 = 0.0\nphi0_second_a = 0.0\nphi1_prime_a = 0.0\n")
    loaded = cauchy.load_tabulated(str(path), 1.0)
    probe = np.linspace(0.05, 0.95, 50)
    assert np.max(np.abs(loaded.phi0(probe) - data.phi0(probe))) <= 1e-4
    rep = cauchy.check_compatibility(loaded, static_maps.motion)
    assert rep.all_passed


def test_tabulated_int_phi1_is_exact_antiderivative(tmp_path):
    # a right-moving bump: phi1 = -phi0' is nonzero, int_0^x phi1 = -phi0(x)
    data = cauchy.make_bump(1.0, 0.5, 0.25, 1.0, "right")
    xs = np.linspace(0.0, 1.0, 101)
    path = tmp_path / "data.txt"
    with open(path, "w") as fh:
        fh.write("[phi0]\n")
        fh.writelines("%.17g %.17g\n" % (x, v) for x, v in zip(xs, data.phi0(xs)))
        fh.write("[phi1]\n")
        fh.writelines("%.17g %.17g\n" % (x, v) for x, v in zip(xs, data.phi1(xs)))
        fh.write("[derivatives]\nphi0_prime_0 = 0.0\nphi0_prime_a = 0.0\n"
                 "phi0_second_0 = 0.0\nphi0_second_a = 0.0\nphi1_prime_a = 0.0\n")
    loaded = cauchy.load_tabulated(str(path), 1.0)
    fine = np.linspace(0.0, 1.0, 200_001)
    vals = loaded.phi1(fine)
    trap = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(fine))])
    probe = slice(None, None, 997)
    assert np.max(np.abs(loaded.int_phi1(fine[probe]) - trap[probe])) <= 1e-9
    # constant past the table, where phi1 reads 0
    assert np.all(loaded.int_phi1([-0.5, 0.0]) == 0.0)
    assert loaded.int_phi1(1.5) == loaded.int_phi1(1.0)


def test_tabulated_missing_derivatives(tmp_path):
    path = tmp_path / "bad.txt"
    with open(path, "w") as fh:
        fh.write("[phi0]\n0 0\n0.5 1\n0.8 0.5\n1 0\n[phi1]\n0 0\n0.3 0\n0.7 0\n1 0\n")
        fh.write("[derivatives]\nphi0_prime_0 = 0.0\n")
    with pytest.raises(ValueError, match="derivative block"):
        cauchy.load_tabulated(str(path), 1.0)
