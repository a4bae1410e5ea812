"""Independent finite-difference oracle on the fixed-domain transformation.

The moving interval 0 <= x <= a(t) is mapped to the unit strip by
y = x / a(t), psi(t, y) = phi(t, x).  Substituting into the Klein-Gordon
equation gives

    psi_tt = 2 (a'/a) y psi_ty
           + [(1 - (a' y)^2) / a^2] psi_yy
           + [a''/a - 2 (a'/a)^2] y psi_y
           - m^2 psi,

marched with a leapfrog scheme: the mixed term is time-centered through a
tridiagonal implicit solve, everything else is explicit and second order.
This solver shares no code with the characteristic machinery beyond the
Simpson rule of its energy, and exists to cross-validate it on short
horizons.
"""

import functools
import math
import os
import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec, spec_from_file_location

import numpy as np

from ._quadrature import simpson

__all__ = ["Unstable", "NoOverlap", "OracleRun", "solve_oracle", "compare"]

# time steps whose coefficients are built together (rows of one array)
STEP_CHUNK = 16
# probe slices that compare evaluates the field on together
PROBE_SLICES = 8


class Unstable(RuntimeError):
    """Discrete solution blew up: wrong transformation or time step."""


class NoOverlap(ValueError):
    """Compared runs have no common (t, x) coverage."""


class OracleRun:
    """Time history of the transformed field on the unit strip.

    ``psi[n, j]`` holds the field at time ``ts[n]`` and y = ``ys[j]``;
    boundary columns are exactly zero.
    """

    def __init__(self, motion, m, ts, ys, psi):
        self.motion = motion
        self.m = float(m)
        self.ts = ts
        self.ys = ys
        self.psi = psi
        self.n_y = len(ys) - 1

    def slice_at(self, t):
        """(x nodes, phi values) at the stored time nearest to t."""
        n = int(np.clip(round((t - self.ts[0]) / (self.ts[1] - self.ts[0])),
                        0, len(self.ts) - 1))
        t_act = self.ts[n]
        a_t = float(self.motion.a(t_act))
        return t_act, self.ys * a_t, self.psi[n].copy()

    def energy(self, n):
        """Discrete E_m at step n (centered time derivative)."""
        if n < 1 or n > len(self.ts) - 2:
            raise ValueError("need interior time index")
        t = self.ts[n]
        a_t = float(self.motion.a(t))
        da_t = float(self.motion.da(t))
        dy = self.ys[1] - self.ys[0]
        dt = self.ts[1] - self.ts[0]
        psi_t = (self.psi[n + 1] - self.psi[n - 1]) / (2.0 * dt)
        psi_y = np.gradient(self.psi[n], dy, edge_order=2)
        phi_x = psi_y / a_t
        phi_t = psi_t - (da_t / a_t) * self.ys * psi_y
        dens = 0.5 * (phi_t**2 + phi_x**2 + self.m**2 * self.psi[n] ** 2)
        return float(simpson(dens, dx=dy) * a_t)


@functools.cache
def _flapack():
    """scipy's ``_flapack`` extension, loaded on its own the first time.

    ``import scipy.linalg.lapack`` would run all of ``scipy.linalg``'s
    ``__init__`` (and through it numpy's ``testing``, ``f2py`` and ``ma``) to
    reach one routine.  The extension is loaded from the same shared object
    under its usual name and registered in ``sys.modules``, so a later
    ``import scipy.linalg`` reuses it; an entry already there is used as is.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    found = PathFinder.find_spec("_flapack", [os.path.join(scipy.__path__[0], "linalg")])
    spec = spec_from_file_location(name, found.origin)
    module = module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _tridiagonal_solve(sub, diag, sup, rhs):
    """Solve A x = rhs in place, A tridiagonal with the given sub-, main and
    superdiagonal: ``rhs`` is overwritten with x and returned.

    Calls LAPACK's dgtsv, the routine ``scipy.linalg.solve_banded((1, 1),
    ...)`` dispatches to, from scipy's ``_flapack`` extension (see
    :func:`_flapack`) and without ``solve_banded``'s per-call validation,
    which costs more than the solve at the oracle's sizes; ``scipy.linalg``
    itself is never imported.  ``rhs`` may be a row view of a larger array
    (a contiguous float64 one is solved where it lies; should the wrapper
    have to copy, the solution is copied back).  ``sub`` and ``sup`` are
    overwritten too; ``diag`` is not.  Values are not checked for
    finiteness: NaN and inf pass through to the result.
    """
    _, _, _, x, info = _flapack().dgtsv(sub, diag, sup, rhs, 1, 0, 1, 1)
    if info != 0:
        raise Unstable("singular tridiagonal system (dgtsv info %d)" % info)
    if x is not rhs:
        rhs[...] = x
    return rhs


def solve_oracle(data, motion, m, n_y=256, t_max=5.0, cfl=0.9):
    """March the transformed equation up to t_max.

    The time step comes from a frozen-coefficient bound on the transformed
    characteristic speeds (1 + sup|a'|)/inf a, scaled by ``cfl``.  The first
    step is seeded to second order with phi1 and the PDE itself.

    Raises :class:`Unstable` when sup|psi| exceeds 10^6 times its initial
    value or when any value is not finite (NaN or inf in the data included).
    The check runs once per chunk of STEP_CHUNK steps, over the chunk's new
    rows, and names the first failing step of the chunk.
    """
    if n_y < 64:
        raise ValueError("n_y >= 64 required")
    a0 = motion.a0
    ys = np.linspace(0.0, 1.0, n_y + 1)
    dy = ys[1] - ys[0]
    speed = (1.0 + motion.da_max) / motion.a_min
    dt = cfl * dy / speed
    n_t = int(math.ceil(t_max / dt))
    dt = t_max / n_t
    ts = dt * np.arange(n_t + 1)

    x0 = ys * a0
    psi0 = np.asarray(data.phi0(x0), dtype=float)
    da_0 = float(motion.da(0.0))
    dda_0 = float(motion.dda(0.0))
    psi_t0 = np.asarray(data.phi1(x0)) + da_0 * ys * np.asarray(data.dphi0(x0))
    # second-order Taylor seed using the transformed PDE at t = 0
    psi_y0 = a0 * np.asarray(data.dphi0(x0))
    psi_yy0 = a0**2 * np.asarray(data.ddphi0(x0))
    psi_ty0 = a0 * np.asarray(data.dphi1(x0)) \
        + da_0 * (np.asarray(data.dphi0(x0)) + ys * a0 * np.asarray(data.ddphi0(x0)))
    g0 = da_0 / a0
    c2_0 = (1.0 - (da_0 * ys) ** 2) / a0**2
    c1_0 = (dda_0 / a0 - 2.0 * g0**2) * ys
    psi_tt0 = (2.0 * g0 * ys * psi_ty0 + c2_0 * psi_yy0 + c1_0 * psi_y0
               - m**2 * psi0)
    psi1 = psi0 + dt * psi_t0 + 0.5 * dt**2 * psi_tt0
    psi0[0] = psi0[-1] = 0.0
    psi1[0] = psi1[-1] = 0.0

    psi = np.empty((n_t + 1, n_y + 1))
    psi[0] = psi0
    psi[1] = psi1
    psi[2:, 0] = psi[2:, -1] = 0.0
    sup0 = max(float(np.max(np.abs(psi0))), 1e-30)

    yint = ys[1:-1]
    idt2 = 1.0 / dt**2
    m2 = m**2
    dy2 = dy**2
    two_dy = 2.0 * dy
    diag = np.full(n_y - 1, idt2)
    # work rows: 2 cur (then each product the right-hand side adds), D_yy,
    # and the centred D_y of the old row, which trades places with dyc
    two_c, dyy, dyo = np.empty((3, n_y - 1))
    dyc = (psi0[2:] - psi0[:-2]) / two_dy
    for n0 in range(1, n_t, STEP_CHUNK):
        n1 = min(n0 + STEP_CHUNK, n_t)
        steps = range(n0, n1)
        # the wall at the chunk's times in Python floats, as a step-by-step
        # build takes them (psi stays bit-identical): a column holds each
        # time in a row of its own, so a Fourier wall sums its terms for it
        # exactly as for that time alone; then the chunk's coefficient rows
        t_col = ts[n0:n1, None]
        scalars = [(da_t / a_t, da_t, a_t**2, dda_t / a_t - 2.0 * (da_t / a_t) ** 2)
                   for a_t, da_t, dda_t in zip(motion.a(t_col).ravel().tolist(),
                                               motion.da(t_col).ravel().tolist(),
                                               motion.dda(t_col).ravel().tolist())]
        g_s, da_s, a2_s, c1_s = np.array(scalars).T[:, :, None]
        g = g_s * yint
        g_dt = g / dt
        c2 = (1.0 - (da_s * yint) ** 2) / a2_s
        c1 = c1_s * yint
        # tridiagonal (1/dt^2) I - (g/dt) D_y on the interior; dgtsv
        # overwrites the sub- and superdiagonal rows, each used once
        coef = g / (dt * 2.0 * dy)
        sup = -coef[:, :-1]

        for k, n in enumerate(steps):
            cur = psi[n]
            c = cur[1:-1]
            new = psi[n + 1, 1:-1]
            np.multiply(2.0, c, out=two_c)
            np.subtract(cur[2:], two_c, out=dyy)
            dyy += cur[:-2]
            dyy /= dy2
            dyo, dyc = dyc, dyo                   # old's centred D_y
            np.subtract(cur[2:], cur[:-2], out=dyc)
            dyc /= two_dy
            # ((((2c - old) idt2 - g_dt dyo) + c2 dyy) + c1 dyc) - m2 c, built
            # in psi's new row in that order, then solved there
            np.subtract(two_c, psi[n - 1, 1:-1], out=new)
            new *= idt2
            dyo *= g_dt[k]
            new -= dyo
            dyy *= c2[k]
            new += dyy
            np.multiply(c1[k], dyc, out=two_c)
            new += two_c
            np.multiply(m2, c, out=two_c)
            new -= two_c
            _tridiagonal_solve(coef[k, 1:], diag, sup[k], new)

        rows = psi[n0 + 1:n1 + 1, 1:-1]
        for n, top in zip(steps, np.maximum(rows.max(axis=1), -rows.min(axis=1)).tolist()):
            # 'not <=' also catches NaN and inf
            if not top <= 1e6 * sup0:
                raise Unstable("|psi| exceeded 1e+06 x initial or is not finite at t=%g"
                               % ts[n])

    return OracleRun(motion, m, ts, ys, psi)


def compare(run, field, times=None):
    """Discrepancy between the oracle and a characteristic-route solution.

    ``field`` may be a MasslessProfile (exact evaluator) or a FieldGrid;
    both are probed at the oracle's interior nodes on the stored slices
    nearest to the requested times, PROBE_SLICES slices per evaluation of
    the field.  A slice whose stored time lies past the common range is
    skipped.
    Returns (probe times kept, per-slice sup discrepancies, their maximum).
    """
    t_lo, t_hi = run.ts[0], run.ts[-1]
    other_hi = getattr(field, "t_max", None)
    if other_hi is not None:
        t_hi = min(t_hi, other_hi)
    if t_hi <= t_lo:
        raise NoOverlap("no common time range")
    if times is None:
        times = np.linspace(t_lo, t_hi, 41)[1:]
    times = np.asarray([t for t in np.asarray(times, dtype=float)
                        if t_lo <= t <= t_hi])
    slices = [run.slice_at(float(t)) for t in times]
    kept = np.array([t_act <= t_hi + 1e-12 for t_act, _, _ in slices], dtype=bool)
    slices = [s for s, keep in zip(slices, kept) if keep]
    if not slices:
        raise NoOverlap("no probe times inside the common range")

    out = np.empty(len(slices))
    for k in range(0, len(slices), PROBE_SLICES):
        part = slices[k:k + PROBE_SLICES]
        X = np.concatenate([xs[1:-1] for _, xs, _ in part])
        T = np.repeat([t_act for t_act, _, _ in part], run.n_y - 1)
        xi, eta = T + X, T - X
        if hasattr(field, "eval_phi"):           # exact massless profile
            ref = field.eval_phi(xi, eta, check=False)
        else:                                     # FieldGrid
            ref = field.interp_phi(xi, eta)
        psi = np.concatenate([vals[1:-1] for _, _, vals in part])
        out[k:k + len(part)] = np.max(np.abs(psi - ref).reshape(len(part), -1),
                                      axis=1)
    return times[kept], out, float(out.max())
