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
horizons.  A run keeps only the steps nearest its probe times (all of them
when given :func:`step_times`).
"""

import functools
import math
import os
import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec, spec_from_file_location

import numpy as np

from ._quadrature import simpson

__all__ = ["Unstable", "NoOverlap", "OracleRun", "step_times", "solve_oracle", "compare"]

# time steps whose coefficients are built together (rows of one array)
STEP_CHUNK = 16
# probe slices that compare evaluates the field on together
PROBE_SLICES = 8


class Unstable(RuntimeError):
    """Discrete solution blew up: wrong transformation or time step."""


class NoOverlap(ValueError):
    """Compared runs have no common (t, x) coverage."""


class OracleRun:
    """The transformed field on the unit strip at the steps a run kept.

    ``ts`` holds every step's time, ``times`` the run's probe times and
    ``steps`` the steps nearest them, sorted and each once.  ``psi[i, j]`` is
    the field at time ``ts[steps[i]]`` and y = ``ys[j]``; boundary columns
    are exactly zero.  Reading a step that was not kept raises ValueError.
    """

    def __init__(self, motion, m, ts, ys, times, steps, psi):
        self.motion = motion
        self.m = float(m)
        self.ts = ts
        self.ys = ys
        self.times = times
        self.steps = steps
        self.psi = psi
        self.n_y = len(ys) - 1
        self._rows = {n: i for i, n in enumerate(steps)}

    def _row(self, n):
        """psi at step n (a view of the kept row)."""
        if n not in self._rows:
            raise ValueError("step %d (t=%g) was not kept by this run" % (n, self.ts[n]))
        return self.psi[self._rows[n]]

    def slice_at(self, t):
        """(time, x nodes, phi values) at the step nearest to t."""
        n = _nearest_step(self.ts, t)
        t_act = self.ts[n]
        a_t = float(self.motion.a(t_act))
        return t_act, self.ys * a_t, self._row(n).copy()

    def energy(self, n):
        """Discrete E_m at step n (centered time derivative)."""
        if n < 1 or n > len(self.ts) - 2:
            raise ValueError("need interior time index")
        old, cur, new = (self._row(k) for k in (n - 1, n, n + 1))
        t = self.ts[n]
        a_t = float(self.motion.a(t))
        da_t = float(self.motion.da(t))
        dy = self.ys[1] - self.ys[0]
        dt = self.ts[1] - self.ts[0]
        psi_t = (new - old) / (2.0 * dt)
        psi_y = np.gradient(cur, dy, edge_order=2)
        phi_x = psi_y / a_t
        phi_t = psi_t - (da_t / a_t) * self.ys * psi_y
        dens = 0.5 * (phi_t**2 + phi_x**2 + self.m**2 * cur ** 2)
        return float(simpson(dens, dx=dy) * a_t)


def _nearest_step(ts, t):
    """Index of the step of the grid ``ts`` nearest to t, clipped to it."""
    return int(np.clip(round((t - ts[0]) / (ts[1] - ts[0])), 0, len(ts) - 1))


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


def step_times(motion, n_y, t_max, cfl=0.9):
    """The times ``solve_oracle`` marches through: n dt for n = 0 ... n_t.

    The time step comes from a frozen-coefficient bound on the transformed
    characteristic speeds (1 + sup|a'|)/inf a, scaled by ``cfl``, and is
    shortened to divide t_max.  Passed as ``times``, it keeps every step.
    """
    dy = np.linspace(0.0, 1.0, n_y + 1)[1]
    speed = (1.0 + motion.da_max) / motion.a_min
    n_t = int(math.ceil(t_max / (cfl * dy / speed)))
    return (t_max / n_t) * np.arange(n_t + 1)


def solve_oracle(data, motion, m, n_y=256, t_max=5.0, cfl=0.9, times=None):
    """March the transformed equation up to t_max on :func:`step_times`, in
    a ring of STEP_CHUNK + 2 rows, keeping the steps nearest the probe
    ``times`` (default: 40 evenly spaced, ending at the last step).

    The first step is seeded to second order with phi1 and the PDE itself.

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
    ts = step_times(motion, n_y, t_max, cfl)
    n_t = len(ts) - 1
    dt = ts[1] - ts[0]
    if times is None:
        times = np.linspace(ts[0], ts[-1], 41)[1:]
    times = np.array(times, dtype=float)
    steps = sorted({_nearest_step(ts, t) for t in times.tolist()})
    psi = np.empty((len(steps), n_y + 1))

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

    # ring row r holds step first + r; kept steps up to last are copied out
    ring = np.empty((STEP_CHUNK + 2, n_y + 1))
    ring[0] = psi0
    ring[1] = psi1
    ring[2:, 0] = ring[2:, -1] = 0.0
    sup0 = max(float(np.max(np.abs(psi0))), 1e-30)
    i = 0

    def keep(first, last):
        nonlocal i
        while i < len(steps) and steps[i] <= last:
            psi[i] = ring[steps[i] - first]
            i += 1

    keep(0, 1)
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

        for k in range(n1 - n0):
            cur = ring[k + 1]
            c = cur[1:-1]
            new = ring[k + 2, 1:-1]
            np.multiply(2.0, c, out=two_c)
            np.subtract(cur[2:], two_c, out=dyy)
            dyy += cur[:-2]
            dyy /= dy2
            dyo, dyc = dyc, dyo                   # old's centred D_y
            np.subtract(cur[2:], cur[:-2], out=dyc)
            dyc /= two_dy
            # ((((2c - old) idt2 - g_dt dyo) + c2 dyy) + c1 dyc) - m2 c, built
            # in the ring's new row in that order, then solved there
            np.subtract(two_c, ring[k, 1:-1], out=new)
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

        rows = ring[2:n1 - n0 + 2, 1:-1]
        for n, top in zip(range(n0, n1),
                          np.maximum(rows.max(axis=1), -rows.min(axis=1)).tolist()):
            # 'not <=' also catches NaN and inf
            if not top <= 1e6 * sup0:
                raise Unstable("|psi| exceeded 1e+06 x initial or is not finite at t=%g"
                               % ts[n])
        keep(n0 - 1, n1)
        ring[:2] = ring[n1 - n0:n1 - n0 + 2]

    return OracleRun(motion, m, ts, ys, times, steps, psi)


def compare(run, field):
    """Discrepancy between the oracle and a characteristic-route solution.

    ``field`` may be a MasslessProfile (exact evaluator) or a FieldGrid;
    both are probed at the oracle's interior nodes on the kept slices
    nearest to the run's probe times, PROBE_SLICES slices per evaluation of
    the field.  Probe times outside the common time range, and those whose
    slice lies past it, are skipped.
    Returns (probe times kept, per-slice sup discrepancies, their maximum).
    """
    t_lo, t_hi = run.ts[0], run.ts[-1]
    other_hi = getattr(field, "t_max", None)
    if other_hi is not None:
        t_hi = min(t_hi, other_hi)
    if t_hi <= t_lo:
        raise NoOverlap("no common time range")
    times = np.asarray([t for t in run.times if t_lo <= t <= t_hi])
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
