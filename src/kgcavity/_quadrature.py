"""Composite Simpson rule on uniformly spaced samples, and Gauss panels.

``simpson(y, dx)`` performs the operations of ``scipy.integrate.simpson(y,
dx=dx)`` (scipy >= 1.11) in the same order, so the two agree bit for bit,
without importing scipy; on a 2-D ``y`` each row is integrated as that row
alone would be.  Odd N uses the composite rule over all points;
N == 2 uses the trapezoid; even N > 2 uses the composite rule over the first
N - 1 points plus Cartwright's correction for the last interval.

``gauss_panels(lo, hi, nodes, weights)`` maps one Gauss-Legendre rule onto
each panel [lo[i], hi[i]].
"""

import numpy as np

__all__ = ["gauss_panels", "simpson"]


def simpson(y, dx):
    """Integral of the uniformly spaced samples ``y`` (spacing ``dx``) along
    its last axis."""
    y = np.asarray(y)
    N = y.shape[-1]
    if N % 2:
        result = np.sum(y[..., 0:N - 2:2] + 4.0 * y[..., 1:N - 1:2]
                        + y[..., 2:N:2], axis=-1)
        return result * (dx / 3.0)
    if N == 2:
        return 0.0 + 0.5 * dx * (y[..., -1] + y[..., -2])
    result = np.sum(y[..., 0:N - 3:2] + 4.0 * y[..., 1:N - 2:2]
                    + y[..., 2:N - 1:2], axis=-1)
    result = result * (dx / 3.0)
    # Cartwright's last-interval weights for equal spacings h0 = h1 = dx
    h0 = h1 = np.float64(dx)
    alpha = (2 * h1 ** 2 + 3 * h0 * h1) / (6 * (h1 + h0))
    beta = (h1 ** 2 + 3.0 * h0 * h1) / (6 * h0)
    eta = (1 * h1 ** 3) / (6 * h0 * (h0 + h1))
    result = result + (alpha * y[..., -1] + beta * y[..., -2] - eta * y[..., -3])
    # scipy adds its (zero) two-point term last, which turns -0.0 into 0.0
    return result + 0.0


def gauss_panels(lo, hi, nodes, weights):
    """Nodes and weights of the rule (``nodes``, ``weights`` on [-1, 1]) on
    the panels [lo[i], hi[i]]: arrays of shape (panels, len(nodes)), one row
    per panel."""
    lo = np.asarray(lo, dtype=float)[:, None]
    hi = np.asarray(hi, dtype=float)[:, None]
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes, 0.5 * (hi - lo) * weights
