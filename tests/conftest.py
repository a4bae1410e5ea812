import math
from fractions import Fraction

import numpy as np
import pytest

from kgcavity import boundary
from kgcavity.circle_dynamics import BRACKET_MARGIN


@pytest.fixture(scope="session")
def static_maps():
    """Constant wall a = 1, T = 1."""
    m = boundary.make_motion({"profile": "constant", "alpha": 1.0, "period": 1.0})
    return boundary.CharacteristicMaps(m)


@pytest.fixture(scope="session")
def strong_maps():
    """sinusoidal(1, 0.1, 1): 2:1 resonance, strong attractor (mu = 0.228)."""
    m = boundary.make_motion({"profile": "sinusoidal", "alpha": 1.0,
                              "beta": 0.1, "period": 1.0})
    return boundary.CharacteristicMaps(m)


@pytest.fixture(scope="session")
def tuned_maps():
    """sinusoidal(0.5, 0.05, 1): 1:1 resonance, attractor at x = 0."""
    m = boundary.make_motion({"profile": "sinusoidal", "alpha": 0.5,
                              "beta": 0.05, "period": 1.0})
    return boundary.CharacteristicMaps(m)


# (mean, cos, sin, period) of two Fourier walls
FOURIER_3 = (0.5, [-0.00315827, 0.0024102], [-0.00497221, 0.0, 0.02], 1.2)
FOURIER_4 = (1.0, [0.03, -0.02, 0.01], [0.02, 0.015, -0.01, 0.005], 1.0)


def random_validated_motions(rng, count):
    """Sample sinusoidal/fourier motions that pass validation."""
    out = []
    while len(out) < count:
        T = float(rng.uniform(0.5, 2.0))
        alpha = float(rng.uniform(0.4, 1.5))
        # keep sup|a'| = 2 pi beta / T safely below 1 and inf a > 0
        beta = float(rng.uniform(0.02, 0.12)) * T
        if alpha - beta <= 0.05:
            continue
        try:
            m = boundary.make_motion({"profile": "sinusoidal", "alpha": alpha,
                                      "beta": beta, "period": T})
        except boundary.RejectedMotion:
            continue
        out.append(m)
    return out


def farey_bracket(maps, n, x0=0.0):
    """(d_n, lo, hi) from the orbit x_k = F^k(x0), k <= n, of the scalar F.

    With d_k = x_k - x0 and p_k = floor(d_k / T), rho / T lies in
    [lo, hi] = [max p_k / k, min (p_k + 1) / k]; a step within
    ``BRACKET_MARGIN * k`` of an integer counts for neither end, and an end
    no step fixes is None.  Every step is walked, and the ends are compared
    as integer cross products.
    """
    T = maps.T
    x = x0 = float(x0)
    lo = hi = None              # (numerator, k) pairs
    for k in range(1, n + 1):
        x = maps.F(x)
        r = (x - x0) / T
        p = math.floor(r)
        if min(r - p, p + 1 - r) <= BRACKET_MARGIN * k:
            continue
        if lo is None or p * lo[1] > lo[0] * k:
            lo = (p, k)
        if hi is None or (p + 1) * hi[1] < hi[0] * k:
            hi = (p + 1, k)
    return (x - x0, None if lo is None else Fraction(*lo),
            None if hi is None else Fraction(*hi))
