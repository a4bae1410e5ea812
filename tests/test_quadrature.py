import numpy as np
import pytest
import scipy
from scipy.integrate import simpson as scipy_simpson

from kgcavity._quadrature import simpson

# scipy 1.10's default rule for an even number of points averages the first-
# and last-interval variants; the helper follows the Cartwright correction
# that 1.11 made the only rule
pytestmark = pytest.mark.skipif(
    tuple(int(v) for v in scipy.__version__.split(".")[:2]) < (1, 11),
    reason="scipy < 1.11 uses another even-N rule")


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_simpson_matches_scipy_short(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        y = rng.standard_normal(n)
        dx = float(rng.uniform(1e-3, 2.0))
        assert simpson(y, dx).hex() == float(scipy_simpson(y, dx=dx)).hex()


def test_simpson_matches_scipy_random_lengths():
    rng = np.random.default_rng(2026)
    lengths = np.concatenate([rng.integers(11, 2049, 100) * 2,
                              rng.integers(5, 2048, 100) * 2 + 1])
    for n in lengths:
        y = rng.standard_normal(int(n)) * 10.0 ** rng.uniform(-6, 6)
        dx = float(rng.uniform(1e-4, 1.0))
        assert simpson(y, dx).hex() == float(scipy_simpson(y, dx=dx)).hex(), n
