import numpy as np
import pytest
import scipy
from scipy.integrate import simpson as scipy_simpson

from kgcavity._quadrature import gauss_panels, leggauss, simpson

# scipy 1.10's default rule for an even number of points averages the first-
# and last-interval variants; the helper follows the Cartwright correction
# that 1.11 made the only rule
scipy_rule = pytest.mark.skipif(
    tuple(int(v) for v in scipy.__version__.split(".")[:2]) < (1, 11),
    reason="scipy < 1.11 uses another even-N rule")


@scipy_rule
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_simpson_matches_scipy_short(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        y = rng.standard_normal(n)
        dx = float(rng.uniform(1e-3, 2.0))
        assert simpson(y, dx).hex() == float(scipy_simpson(y, dx=dx)).hex()


@scipy_rule
def test_simpson_matches_scipy_random_lengths():
    rng = np.random.default_rng(2026)
    lengths = np.concatenate([rng.integers(11, 2049, 100) * 2,
                              rng.integers(5, 2048, 100) * 2 + 1])
    for n in lengths:
        y = rng.standard_normal(int(n)) * 10.0 ** rng.uniform(-6, 6)
        dx = float(rng.uniform(1e-4, 1.0))
        assert simpson(y, dx).hex() == float(scipy_simpson(y, dx=dx)).hex(), n


@pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 513, 1024])
def test_simpson_rows_match_one_dimensional(n):
    # a 2-D y integrates each row as that row alone, bit for bit
    rng = np.random.default_rng(n)
    y = rng.standard_normal((5, n)) * 10.0 ** rng.uniform(-6, 6, (5, 1))
    dx = float(rng.uniform(1e-4, 1.0))
    assert [float(v).hex() for v in simpson(y, dx)] == \
        [float(simpson(row, dx)).hex() for row in y]


@pytest.mark.parametrize("n", [1, 3, 8])
def test_gauss_panels_exact_to_degree_2n_minus_1(n):
    # an n-node rule integrates degree 2n - 1 exactly on every panel
    rng = np.random.default_rng(n)
    poly = np.polynomial.Polynomial(rng.standard_normal(2 * n))
    edges = np.array([-1.3, -0.2, 0.05, 0.7, 2.4])
    x, w = gauss_panels(edges[:-1], edges[1:], *np.polynomial.legendre.leggauss(n))
    assert x.shape == w.shape == (4, n)
    exact = poly.integ()(edges[1:]) - poly.integ()(edges[:-1])
    scale = np.polynomial.Polynomial(np.abs(poly.coef)).integ()(2.4) * 10
    assert np.max(np.abs(np.sum(w * poly(x), axis=1) - exact)) <= 1e-14 * scale


def test_leggauss_matches_numpy():
    # the package's rules (16, 24, 64 nodes) and every size around them
    for n in range(2, 80):
        x, w = np.polynomial.legendre.leggauss(n)
        got = leggauss(n)
        assert [v.hex() for v in got[0].tolist()] == [v.hex() for v in x.tolist()], n
        assert [v.hex() for v in got[1].tolist()] == [v.hex() for v in w.tolist()], n
