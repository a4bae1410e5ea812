"""Composite Simpson rule on uniformly spaced samples, and Gauss panels.

``simpson(y, dx)`` performs the operations of ``scipy.integrate.simpson(y,
dx=dx)`` (scipy >= 1.11) in the same order, so the two agree bit for bit,
without importing scipy; on a 2-D ``y`` each row is integrated as that row
alone would be.  Odd N uses the composite rule over all points;
N == 2 uses the trapezoid; even N > 2 uses the composite rule over the first
N - 1 points plus Cartwright's correction for the last interval.

``leggauss(n)`` performs the operations of
``numpy.polynomial.legendre.leggauss(n)`` in the same order, so its nodes
and weights agree bit for bit, without importing ``numpy.polynomial``
(0.8 MB resident in every run); ``gauss_panels(lo, hi, nodes, weights)``
maps one Gauss-Legendre rule onto each panel [lo[i], hi[i]].
``sorted_unique(a)`` is ``np.unique(a)`` without its ``numpy.ma`` import.
"""

import numpy as np

__all__ = ["gauss_panels", "leggauss", "simpson", "sorted_unique"]


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


def _legval(x, c):
    """sum_k c[k] P_k(x) for a list c of at least two floats, by numpy's
    Clenshaw recurrence (``legval``) in the same order."""
    c0, c1, nd = c[-2], c[-1], len(c)
    for ck in c[-3::-1]:
        tmp = c0
        nd -= 1
        c0 = ck - c1 * ((nd - 1) / nd)
        c1 = tmp + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def leggauss(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], n >= 2:
    eigenvalues of the symmetric companion matrix of P_n, one Newton step,
    then weights from P_{n-1} and P_n', symmetrised and scaled to sum 2."""
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:n - 1] * scl[1:n]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    p_n = [0.0] * n + [1.0]
    dp_n = [2.0 * k + 1.0 if (n - k) % 2 else 0.0 for k in range(n)]  # P_n'
    df = _legval(x, dp_n)
    x -= _legval(x, p_n) / df
    fm = _legval(x, p_n[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


def sorted_unique(a):
    """The distinct values of ``a``, flattened: sort, drop adjacent repeats."""
    s = np.sort(a, axis=None)
    return s[np.concatenate([[True], s[1:] != s[:-1]])]
