"""Massive Klein-Gordon solver by Picard iteration on a characteristic lattice.

Route: the equation phi_{xi eta} = -(m^2/4) phi is solved by feeding
f = -(m^2/4) phi^{(n-1)} through the explicit profile construction

    phi^{(n)}(xi, eta) = (m^2/4) T[phi^{(n-1)}](xi, eta) + G(eta) - G(xi),
    T[w](xi, eta) = int_{|eta|}^{xi} dy int_{eta}^{y} dz w(y, z),

with G rebuilt each pass from the data plus prolongation corrections.
Everything lives on one uniform grid s_j = -a(0) + j*delta shared by both
characteristic coordinates; the admissible nodes form a banded strip
max(-xi, F^{-1}(xi)) <= eta <= xi whose cumulative trapezoid tables give
every triangle integral in O(band) work per pass.

The iteration is Volterra in xi: row i of the new field needs only rows <= i
of the old one, and the prolongation of column j reads the correction only at
jstar(j) <= j - 2 a_min/delta + 1, which lies in an earlier block of rows.  So
the solver marches through the band in blocks of rows and iterates each block
until it lies within tolerance of its fixed point; the rows below are final by
then.  A block after the first starts from the block below: its D (the mass
term) extrapolated linearly down each diagonal (fixed eta) from the last two D
rows there.  It stops by Banach's a-posteriori bound, once q/(1-q) times its
last change is within tolerance, where q bounds the pass's Lipschitz constant
and is derived from the lattice.  Each pass builds the block's tables in small
reused buffers from the carried boundary rows of the block below.  One march
serves two routes: ``picard_solve`` iterates each block inside the band phi,
its only band-sized array, which ``interp_phi`` and the identity checks read;
``picard_energy_series`` (the route of ``simulate``) keeps no band: it
iterates every block in one block buffer and copies out only the slice nodes
its energies read.  Both record each row's max|phi| as its block converges,
and the invariants are read from that record.

G is stored as (exact massless part) + (mass correction): the massless part
is evaluated by exact F-pullback, so interpolation error enters only
through the O(m^2) correction.

The backward-characteristic geometry (rectangles Q, vertex map B, depth N,
signed union M) provides an independent integral-identity check of the
converged field.  One walk builds it for arrays of points together: a table
of backward coordinates, one F^{-1} step per row for all points, from which
depth, measure(M) and the identity's rectangles are read; the identity
integrates all rectangles of all samples in batched interpolation calls.
The same walk at one point stays on Python floats: its F^{-1} steps, its
stop and depth tests and the rectangle sum of measure(M), which repeats a
column of the array sum operation for operation.

Concurrency: passes are inherently sequential; within a pass every array
operation is single-threaded numpy with a fixed summation order, so results
are bitwise deterministic.  FieldGrid instances are immutable after the
solve and safe to share read-only.
"""

import math

import numpy as np

from ._quadrature import leggauss, simpson
from .characteristics_solver import OutsideDomain, build_initial_profile

__all__ = [
    "NotConverged",
    "SliceUnavailable",
    "PicardRun",
    "FieldGrid",
    "picard_solve",
    "picard_energy_series",
    "verify_integral_identity",
    "time_of",
    "depth",
    "union_M",
    "measure_M",
]

_G16, _W16 = leggauss(16)
_BLOCK_ROWS = 64        # most band rows per block of the marched Picard iteration
_BLOCK_NODES = 40_000   # most nodes (rows x Wmax) per block: 312 KiB per block buffer
_QUAD_NODES = 4096      # Gauss nodes per interp_phi call of the identity checks


class NotConverged(RuntimeError):
    """A block of rows hit n_max Picard passes while its sup-norm change
    stayed above its stop (tol_abs, or more by its contraction bound);
    ``changes`` holds the per-pass maxima so far."""

    def __init__(self, msg, changes):
        super().__init__(msg)
        self.changes = changes


class SliceUnavailable(ValueError):
    """Requested time slice needs neighbors beyond the stored horizon."""


# ---------------------------------------------------------------------------
# backward-characteristic geometry (pure functions of the maps)
# ---------------------------------------------------------------------------

def time_of(xi, eta):
    """T(xi, eta) = (xi + eta)/2."""
    return 0.5 * (np.asarray(xi) + np.asarray(eta))


def _backward_walk(maps, xi, eta):
    """Backward vertex orbits of the points (xi, eta), walked together.

    Returns (c, N): c[0] = xi, c[1] = eta and c[k + 2] = F^{-1}(c[k]), one
    row per coordinate and one column per point, so that B^n = (c[n], c[n+1])
    and Q(B^n) = [c[n+1], c[n]] x [c[n+2], c[n+1]]; N is each point's depth,
    the last n before the first vertex outside max(-xi, F^{-1}(xi)) <= eta <=
    xi (with the 1e-9 slack of ``in_domain``).  c has max(N) + 3 rows.  The
    walk stops once every point's last vertex has 2t < -1e-8, where the test
    must fail; points past their depth are walked along unmasked.
    Terminates because each B step lowers the time by a(k^{-1}(xi)) >= inf a.
    One point (0-d xi and eta) walks on Python floats, where F^{-1} takes the
    scalar inverse, and keeps its stop and inside tests on floats too: c is
    then a list of N + 3 floats and N an int.
    """
    if (isinstance(xi, float) and isinstance(eta, float)
            or np.ndim(xi) == np.ndim(eta) == 0):
        c = [float(xi), float(eta)]
        c.append(maps.F_inv(c[0]))
        while c[-3] + c[-2] >= -1e-8:
            c.append(maps.F_inv(c[-2]))
        n = 0                           # the first vertex outside the domain
        while (n < len(c) - 2 and c[n + 1] <= c[n] + 1e-9
               and c[n + 1] >= max(-c[n], c[n + 2]) - 1e-9):
            n += 1
        if n == 0:
            raise OutsideDomain("(%g, %g) outside the domain" % (c[0], c[1]))
        return c[:n + 2], n - 1
    xi, eta = np.broadcast_arrays(np.asarray(xi, dtype=float),
                                  np.asarray(eta, dtype=float))
    c = [xi, eta, maps.F_inv(xi)]
    while np.max(c[-3] + c[-2], initial=-1.0) >= -1e-8:
        c.append(maps.F_inv(c[-2]))
    c = np.array(c).reshape(len(c), -1)
    x, e = c[:-2], c[1:-1]
    inside = (e <= x + 1e-9) & (e >= np.maximum(-x, c[2:]) - 1e-9)
    if not inside[0].all():
        k = int(np.argmin(inside[0]))
        raise OutsideDomain("(%g, %g) outside the domain" % (c[0, k], c[1, k]))
    N = np.argmin(inside, axis=0) - 1
    return c[:N.max(initial=0) + 3], N


def depth(maps, xi, eta):
    """N(xi, eta): largest n with B^n still inside the domain."""
    return _backward_walk(maps, xi, eta)[1]


def union_M(maps, xi, eta):
    """Signed rectangles making up M(xi, eta) at one point.

    Returns a list of (sign, (y0, y1), (z0, z1), clipped), where sign =
    (-1)^(n+1) is the sign of the integrand on Q(B^n); the last entry is
    Q(B^N) intersected with the domain, i.e. additionally z >= -y.
    """
    c, N = _backward_walk(maps, xi, eta)
    return [(-1.0 if n % 2 == 0 else 1.0, (c[n + 1], c[n]), (c[n + 2], c[n + 1]),
             n == N) for n in range(N + 1)]


def _clipped_area(y0, y1, z0, z1):
    """Area of [y0,y1]x[z0,z1] with z >= -y imposed, elementwise."""
    dz = z1 - z0
    full = np.maximum(y1 - y0, 0.0) * np.maximum(dz, 0.0)
    # where z0 < -y0 the z-extent is z1 - max(z0, -y): zero below yc, linear
    # in y up to ys, dz above ys
    yc = np.maximum(y0, -z1)
    ys = np.minimum(np.maximum(-z0, yc), y1)
    cut = 0.5 * ((z1 + yc) + (z1 + ys)) * np.maximum(ys - yc, 0.0) + dz * (y1 - ys)
    return np.where(z0 >= -y0, full, cut)


def measure_M(maps, xi, eta):
    """Lebesgue measure of M(xi, eta); bounded by 2 a_max T(xi, eta).

    Sums the rectangle areas w[n] w[n+1] (w = c[:-1] - c[1:], clamped at 0)
    for n < N in order of n, then the clipped Q(B^N); one point sums on
    Python floats, with the same operations as a column of the array sum.
    """
    c, N = _backward_walk(maps, xi, eta)
    if isinstance(N, int):
        total = 0.0
        for n in range(N):
            total += max(c[n] - c[n + 1], 0.0) * max(c[n + 1] - c[n + 2], 0.0)
        return total + float(_clipped_area(c[N + 1], c[N], c[N + 2], c[N + 1]))
    w = np.maximum(c[:-1] - c[1:], 0.0)
    n = np.arange(len(c) - 2)[:, None]
    total = np.cumsum(np.where(n < N, w[:-1] * w[1:], 0.0), axis=0)[-1]
    y1, z1, z0 = c[N + np.arange(3)[:, None], np.arange(len(N))]  # c[N .. N+2]
    return total + _clipped_area(z1, y1, z0, z1)


# ---------------------------------------------------------------------------
# the banded characteristic lattice
# ---------------------------------------------------------------------------

class _Lattice:
    """Shared geometry of the banded (xi, eta) grid for one run."""

    def __init__(self, maps, resolution, t_max):
        self.maps = maps
        a0 = maps.a0
        self.a0 = a0
        self.delta = a0 / int(resolution)
        if self.delta >= maps.motion.a_min:
            raise ValueError("resolution too coarse: delta must be < a_min")
        d = self.delta
        self.n0 = int(resolution)                  # index of s = 0
        x_max = float(maps.k(t_max)) + 4.0 * d
        self.M = int(math.ceil((x_max + a0) / d)) + 2
        self.s = -a0 + d * np.arange(self.M + 1)
        self.t_max = float(t_max)

        self.Finv = np.asarray(maps.F_inv(self.s))      # F^{-1} at every node
        lower = np.maximum(-self.s, self.Finv)
        self.jmin = np.maximum(
            np.ceil((lower + a0) / d - 1e-9).astype(int), 0)
        # rows are i = n0 .. M (xi >= 0)
        self.R = self.M - self.n0 + 1
        rows = np.arange(self.n0, self.M + 1)
        width = rows - self.jmin[rows] + 1
        self.edge = np.maximum.accumulate(rows + self.jmin[rows])   # see slice_len
        self.Wmax = int(width.max())
        self.cmin = self.Wmax - width                    # per-row first valid column
        # prolongation stencil for columns beyond the initial interval
        j_pro = np.arange(2 * self.n0 + 1, self.M + 1)
        self.j_pro = j_pro
        eta_star = self.Finv[j_pro]
        jstar = np.searchsorted(self.s, eta_star - 1e-12 * d, side="left")
        # ensure s[jstar-1] < eta* <= s[jstar]
        jstar = np.clip(jstar, 1, self.M - 1)
        self.jstar = jstar
        self.u = np.maximum(self.s[jstar] - eta_star, 0.0)
        self.lam = 1.0 - self.u / d                      # weight of Corr[jstar]
        # a block of rows must not reach its own prolongation sources jstar;
        # on wide bands it holds at most _BLOCK_NODES nodes (see _march)
        reach = int(np.min(j_pro - jstar)) if j_pro.size else _BLOCK_ROWS
        self.block = max(1, min(_BLOCK_ROWS, _BLOCK_NODES // self.Wmax, reach))

    def blocks(self):
        """(r0, r1) row ranges of the blocks, in the order they converge."""
        for r0 in range(0, self.R, self.block):
            yield r0, min(r0 + self.block, self.R)

    def g_table(self):
        """(G at every node, G on the columns of each band row) as two views of
        one zero-padded buffer: row r reads G(s_j) for its columns at rows[r]."""
        buf = np.zeros(self.Wmax + self.M)
        rows = np.lib.stride_tricks.sliding_window_view(buf, self.Wmax)
        return buf[self.Wmax - 1:], rows[self.n0:]

    def row_extrema(self, g):
        """(max, min) of the node values g over the columns jmin(i) .. i of
        each band row i, from a doubling table of which at most two levels
        (maxima and minima of g over runs of 2^k nodes) are alive at once."""
        lo = self.jmin[self.n0:]
        hi = np.arange(self.n0, self.M + 1)
        level = np.frexp(hi - lo + 1)[1] - 1        # floor(log2(row width))
        top, bottom = np.empty(self.R), np.empty(self.R)
        mx = mn = g
        for k in range(int(level.max()) + 1):
            if k:                                   # runs of 2^k from 2^(k-1)
                half = 1 << (k - 1)
                mx = np.maximum(mx[:-half], mx[half:])
                mn = np.minimum(mn[:-half], mn[half:])
            r = np.flatnonzero(level == k)
            a, b = lo[r], hi[r] + 1 - (1 << k)      # two runs covering the row
            top[r] = np.maximum(mx[a], mx[b])
            bottom[r] = np.minimum(mn[a], mn[b])
        return top, bottom

    def fill_rows(self, Grows, r0, out, add=None):
        """out = G(s_j) - G(s_i) (+ add) on the band rows r0 .. r0 + len(out) - 1,
        exact zeros outside the band."""
        win = Grows[r0:r0 + len(out)]
        # copy, then subtract in place: numpy 2.4 copies operands that it
        # cannot walk as one flat run through a buffer, and a plain copy of
        # the window is cheaper than buffering it inside the subtraction
        out[...] = win
        out -= win[:, -1:]
        if add is not None:
            out += add
        _clear_left(out, self.cmin[r0:r0 + len(out)])

    # -- time slices: anti-diagonals i + j = L, nodes at rows i = L/2, L/2 + 1, ...
    def slice_L(self, ts):
        """Even anti-diagonals L with node times closest to ts, halves to even."""
        return 2 * np.round((np.asarray(ts, dtype=float) + self.a0) / self.delta).astype(int)

    def slice_len(self, L):
        """(node counts, in lattice) of the anti-diagonals L: node (i, L - i) is
        in the band while i + jmin(i) <= L, so one search of the band edge
        counts the nodes from x = 0 up to the last before the wall.  A slice is
        in the lattice when L/2 is a stored row and the band ends before M."""
        i_lo = L // 2                       # x = 0 sits on the diagonal
        end = np.searchsorted(self.edge, L, "right")
        return end - (i_lo - self.n0), (i_lo >= self.n0) & (i_lo <= self.M) & (end < self.R)

    def slice_plan(self, ts):
        """(L, n) of the times ts whose energy slices exist: L the nearest
        anti-diagonal of each, n the node counts (n, n+, n-) of the slices L,
        L + 2, L - 2 that its energy reads; times whose slices leave the
        stored lattice, or are too short for the stencils, are dropped."""
        L = self.slice_L(ts)
        n, ok = self.slice_len(L + np.array([[0], [2], [-2]]))
        keep = ok.all(axis=0) & (n[0] >= 7)
        return L[keep], n[:, keep].T


def _clear_left(a, first):
    """a[k, :first[k]] = 0 for every row k, touching only columns < max(first)."""
    n = int(first.max())
    if n > 0:
        a[:, :n][np.arange(n) < first[:, None]] = 0.0


class PicardRun:
    """What a Picard march records besides the field: its pass counts and the
    per-row maxima of the converged field, from which the invariants are read.

    Attributes
    ----------
    changes : sup-norm Picard increments; changes[k] is the largest change
              of the (k+1)-th pass over any block of rows.  Only the first
              block starts from phi^(0); the others start from the block
              below, so their changes[0] is what that seed missed, not the
              whole O(m^2) correction.
    block_passes : Picard passes each block of rows needed (int array);
                   iterations is its maximum, len(changes).  At m = 0 every
                   block takes one pass, which changes nothing.
    row_sup : max |phi| of each band row, recorded as its block converged.
    ratios : largest measured change ratio of successive passes of each
             block (0.0 for a block of one pass).
    contraction : the bound q on the Lipschitz constant of each block's pass
                  that its stop used; it bounds that block's ratios.
    """

    def __init__(self, lattice, m, changes, block_passes, tol_abs, sup_phi0,
                 row_sup, ratios, contraction):
        self.lattice = lattice
        self.maps = lattice.maps
        self.m = float(m)
        self.changes = list(changes)
        self.block_passes = np.array(block_passes, dtype=int)
        self.iterations = int(self.block_passes.max())
        self.tol_abs = float(tol_abs)
        self.sup_phi0 = float(sup_phi0)
        self.row_sup = row_sup
        self.ratios = np.array(ratios, dtype=float)
        self.contraction = np.array(contraction, dtype=float)
        self.t_max = lattice.t_max

    def sup_phi(self):
        return float(self.row_sup.max())

    def field_bound_ratio(self):
        """sup over the grid of |phi| e^{-a_max m^2 xi / 2} / sup|phi^(0)|."""
        lat = self.lattice
        k = -0.5 * self.maps.motion.a_max * self.m**2
        w = [math.exp(k * x) for x in lat.s[lat.n0:].tolist()]
        worst = float(np.max(self.row_sup * w))
        return worst / max(self.sup_phi0, 1e-300)

    def picard_bound(self):
        """(measured changes, a-priori bound sequence) from the factorial
        estimate (a_max m^2 dxi_block / 2)^n / n! * change_0: the rows below
        a block are final while it iterates, so its xi extent dxi_block =
        block * delta takes the place of xi_max."""
        dxi_block = self.lattice.block * self.lattice.delta
        base = 0.5 * self.maps.motion.a_max * self.m**2 * dxi_block
        c0 = self.changes[0]
        ns = np.arange(len(self.changes))
        bound = np.array([c0 * base**n / math.factorial(n) for n in ns])
        return np.asarray(self.changes), bound

    def picard_bound_ok(self):
        """Every pass after the first within picard_bound(), up to rounding."""
        ch, bd = self.picard_bound()
        return bool(np.all(ch[1:] <= bd[1:] + 1e-13 * self.sup_phi0))


class FieldGrid(PicardRun):
    """Converged field over the characteristic lattice up to a time horizon.

    Attributes
    ----------
    phi : banded array of samples, rows xi = s_i (i >= index of 0),
          columns eta = s_j for j in [j_min(i), i].

    and those of the PicardRun that produced it.
    """

    def __init__(self, run, profile, phi):
        vars(self).update(vars(run))
        self.profile = profile
        self.phi = phi

    # -- slice extraction ------------------------------------------------------
    def _gather(self, L, n):
        """phi on the first n nodes of each anti-diagonal in L, one per row."""
        lat = self.lattice
        i = (L // 2)[:, None] + np.arange(n)
        return self.phi[i - lat.n0, lat.Wmax - 1 - 2 * i + L[:, None]]

    def phi_slice(self, t):
        """(t_actual, x nodes, phi values) on the nearest aligned slice;
        SliceUnavailable where slice_len finds it outside the stored lattice."""
        lat = self.lattice
        L = int(lat.slice_L(t))
        n, ok = lat.slice_len(L)
        if not ok:
            raise SliceUnavailable("slice leaves the stored lattice")
        t_act = 0.5 * lat.delta * L - lat.a0
        xs = lat.s[L // 2 + np.arange(n)] - t_act
        return t_act, xs, self._gather(np.array([L]), n)[0]

    def interp_phi(self, xi, eta):
        """Bilinear interpolation on the band with boundary-anchored cells.

        Near the wall / t = 0 / x = 0 edges the missing stencil nodes are
        replaced by the exact boundary traces (0 on the Dirichlet lines,
        phi0 on the initial line), keeping O(delta) worst-case error in the
        edge cells and O(delta^2) elsewhere.
        """
        lat = self.lattice
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        d = lat.delta
        fi = (xi + lat.a0) / d
        i0 = np.clip(np.floor(fi).astype(int), lat.n0, lat.M - 1)
        wx = fi - i0

        def row_value(i_arr, etav):
            """phi(s_i, eta) per row with anchored linear interpolation."""
            i_arr = np.asarray(i_arr)
            s_i = lat.s[i_arr]
            jlo = lat.jmin[i_arr]
            fj = (etav + lat.a0) / d
            j0 = np.floor(fj).astype(int)
            j1 = j0 + 1
            # clamp to the diagonal: node above z = y is the exact zero at z = s_i
            r = i_arr - lat.n0
            cmax = lat.Wmax - 1

            def node(jj):
                jj_cl = np.clip(jj, 0, lat.M)
                cc = cmax - (i_arr - jj_cl)
                valid = (jj_cl >= jlo) & (jj_cl <= i_arr) & (cc >= 0)
                vals = np.zeros(i_arr.shape)
                vals[valid] = self.phi[r[valid], cc[valid]]
                return vals, valid

            v0, ok0 = node(j0)
            v1, ok1 = node(j1)
            z0 = lat.s[np.clip(j0, 0, lat.M)]
            z1 = lat.s[np.clip(j1, 0, lat.M)]
            # above-diagonal stencil -> anchor at (s_i, 0)
            hi_anchor = ~ok1
            z1 = np.where(hi_anchor, s_i, z1)
            v1 = np.where(hi_anchor, 0.0, v1)
            # below-band stencil -> anchor at the binding boundary
            lo_anchor = ~ok0
            wall_bind = lat.Finv[i_arr] >= -s_i
            z_w = np.where(wall_bind, lat.Finv[i_arr], -s_i)
            v_w = np.where(wall_bind, 0.0,
                           np.asarray(self.profile.data.phi0(np.abs(s_i))))
            z0 = np.where(lo_anchor, z_w, z0)
            v0 = np.where(lo_anchor, v_w, v0)
            span = np.maximum(z1 - z0, 1e-300)
            w = np.clip((etav - z0) / span, 0.0, 1.0)
            return (1.0 - w) * v0 + w * v1

        va = row_value(i0, eta)
        vb = row_value(np.minimum(i0 + 1, lat.M), eta)
        return (1.0 - wx) * va + wx * vb

    # -- energy ----------------------------------------------------------------
    def energy_series(self, ts):
        """(t_actual, E, mass share) arrays at the aligned times nearest ts."""
        return _energy_series(self.lattice, self.m, *self.lattice.slice_plan(ts),
                              self._gather)


_C_EDGE = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0


def _slice_energy(phi_c, phi_p, phi_m, t, x_end, d, m, motion):
    """(kinetic, gradient, mass) parts of E_m on S slices of one length triple.

    phi_c, phi_p and phi_m are (S, n), (S, n+) and (S, n-) arrays: the nodes
    of the slices at t, t + d and t - d, which share x = k d at index k (all
    start at x = 0); x_end is the x of each slice's last node.  Spatial
    derivative: 4th-order central differences along the slice; time
    derivative: centered difference between the t +- d slices; composite
    Simpson in x plus an exactly-anchored partial cell at the moving wall.
    """
    S, n = phi_c.shape
    n_m = min(n, phi_m.shape[1])
    n_ct = min(n_m, phi_p.shape[1])
    phi_x = np.zeros((S, n))
    phi_x[:, 2:n - 2] = (-phi_c[:, 4:] + 8.0 * phi_c[:, 3:n - 1]
                         - 8.0 * phi_c[:, 1:n - 3] + phi_c[:, :n - 4]) / (12.0 * d)
    # one-sided 4th order at the ends
    phi_x[:, 1] = (-3.0 * phi_c[:, 0] - 10.0 * phi_c[:, 1] + 18.0 * phi_c[:, 2]
                   - 6.0 * phi_c[:, 3] + phi_c[:, 4]) / (12.0 * d)
    phi_x[:, n - 2] = (3.0 * phi_c[:, n - 1] + 10.0 * phi_c[:, n - 2]
                       - 18.0 * phi_c[:, n - 3] + 6.0 * phi_c[:, n - 4]
                       - phi_c[:, n - 5]) / (12.0 * d)
    for s in range(S):
        phi_x[s, 0] = np.dot(_C_EDGE, phi_c[s, 0:5]) / d
        phi_x[s, n - 1] = -np.dot(_C_EDGE, phi_c[s, n - 1:n - 6:-1]) / d

    a = motion.a(t[:, None])[:, 0]      # columns: each time evaluated alone
    da = motion.da(t[:, None])[:, 0]
    phi_t = np.zeros((S, n))                       # 0 on x = 0 (Dirichlet)
    phi_t[:, 1:n_ct] = (phi_p[:, 1:n_ct] - phi_m[:, 1:n_ct]) / (2.0 * d)
    # first-order backward in t; O(1) cells next to the wall
    phi_t[:, n_ct:n_m] = (phi_c[:, n_ct:n_m] - phi_m[:, n_ct:n_m]) / d
    # wall relation phi_t = -a'(t) phi_x holds on x = a(t)
    phi_t[:, n_m:] = -da[:, None] * phi_x[:, n_m:]

    kin_dens = 0.5 * phi_t**2
    grad_dens = 0.5 * phi_x**2
    mass_dens = 0.5 * m**2 * phi_c**2
    E_kin = simpson(kin_dens, dx=d)
    E_grad = simpson(grad_dens, dx=d)
    E_mass = simpson(mass_dens, dx=d)

    # partial cell [x_end, a(t)] with the exact Dirichlet zero at the wall
    for s, a_s in enumerate(a.tolist()):
        gap = a_s - x_end[s]
        if gap > 1e-12:
            if gap > 0.1 * d:
                px_w = (0.0 - phi_c[s, n - 1]) / gap
            else:
                px_w = phi_x[s, n - 1]
            # on the wall phi_t = -a' phi_x, so the endpoint densities are
            # determined by the slope alone
            E_kin[s] += 0.5 * gap * (kin_dens[s, -1] + 0.5 * (da[s] * px_w) ** 2)
            E_grad[s] += 0.5 * gap * (grad_dens[s, -1] + 0.5 * px_w**2)
            E_mass[s] += 0.5 * gap * mass_dens[s, -1]
    return E_kin, E_grad, E_mass


def _energy_series(lat, m, L, n, gather):
    """(t, E, mass share) at the anti-diagonals L (an int array) of a slice
    plan (L, n), whose slices L, L + 2, L - 2 have the node counts n = (n, n+,
    n-); the slices of one length triple are evaluated together.  gather(L, k)
    returns the first k nodes of each anti-diagonal of L as rows."""
    t = 0.5 * lat.delta * L - lat.a0
    E, share = np.empty(len(L)), np.empty(len(L))
    triples, group = np.unique(n, axis=0, return_inverse=True)
    group = group.reshape(-1)
    for g, (k, k_p, k_m) in enumerate(triples.tolist()):
        sel = np.flatnonzero(group == g)
        Ls, ts = L[sel], t[sel]
        x_end = lat.s[Ls // 2 + k - 1] - ts
        kin, grad, mass = _slice_energy(gather(Ls, k), gather(Ls + 2, k_p),
                                        gather(Ls - 2, k_m), ts, x_end, lat.delta,
                                        m, lat.maps.motion)
        E[sel] = kin + grad + mass
        share[sel] = mass
    return t, E, share


def _march(lat, profile, m, tol, n_max, phi=None, on_block=None):
    """The block-marched Picard iteration on the lattice; returns its PicardRun.

    The blocks are iterated in ``phi`` when it is given (the band, R x Wmax
    rows), which then holds the converged field; otherwise in one block buffer
    that every block reuses.  ``on_block(r0, r1, rows)`` sees the converged
    rows r0 .. r1 - 1 of each block before the next block starts.  The band
    route iterates in place rather than copying each block out through
    ``on_block``, because the copy held one more block buffer: +0.27 MB
    ``tracemalloc`` peak in a res-256 solve (64 x 525 rows, band bit for
    bit), and the benchmark's crosscheck peak RSS read 51.69-51.74 MB
    against 51.47-51.52 MB in place, in 4 of 4 alternating pairs.

    A pass over a block has four parts: the C trapezoid table (one add over
    the flattened block, cumulated from the diagonal along each row), the D
    cumulation (one add over the flattened C rows into the block that the
    new iterate will fill, scaled into the C rows, which D replaces, and
    cumulated down the diagonals row by row), the prolongation of the
    correction, and the row assembly G(s_j) - G(s_i) + D in ``fill_rows``.
    The new iterate goes to a second block buffer, which then swaps with the
    old one, so no pass copies a block; a block of the band whose last pass
    ended in that buffer is copied back once.

    A block holds at most _BLOCK_NODES nodes: a seed extrapolated over fewer
    rows misses less, so fewer blocks need a second pass, while each block
    costs a fixed amount (first iterate, q, row maxima, ``on_block``).

    The first block starts from its phi^(0) rows.  Every later block starts
    from a seeded D: D[r, c] = D_above[c+r+1] + (r+1) (D_above[c+r+1] -
    D_above2[c+r+2]), linear along each diagonal from the last two D rows of
    the block below (two sliding windows over two carried rows padded with
    the zeros beyond the diagonal), with the initial-interval corrections
    corr[n0 +- k] extrapolated linearly from the last ones below.  The
    prolongation and row assembly then give the first iterate.  A pass is
    affine in the block's rows, and q (computed per block from w, the block
    height b, the width Wmax and its prolongation and initial-interval
    columns) bounds its Lipschitz constant in the sup norm.  A block stops
    once change * q / (1 - q) <= tol_abs, so its distance to its fixed point
    is within tol_abs; for q >= 1/2 it stops on change <= tol_abs.  At
    m = 0 a pass is constant (q = 0): every first iterate is the massless
    field G(s_j) - G(s_i), and one pass that changes nothing stops on
    change <= tol_abs.  The PicardRun records q and the largest measured
    change ratio of each block.
    """
    # numpy buffers every operand of a pass that is not one flat run (row
    # slices, sliding windows); a 1024-element buffer suits the block's rows.
    # np.errstate scopes the buffer size to this call and thread
    with np.errstate():
        np.setbufsize(1024)
        return _march_blocks(lat, profile, m, tol, n_max, phi, on_block)


def _march_blocks(lat, profile, m, tol, n_max, phi, on_block):
    """The body of ``_march``."""
    n0, W, B, h = lat.n0, lat.Wmax, lat.block, 0.5 * lat.delta
    keep = phi is not None
    if not keep:
        phi = np.empty((B, W))
    Gl0, G0rows = lat.g_table()
    Gl0[:] = profile.G(lat.s)
    row_sup = np.empty(lat.R)
    # sup0 and tol_abs are needed before the first block iterates: row i of
    # phi^(0) is G(s_j) - G(s_i) over its band columns, and x -> fl(x - G_i)
    # is monotone, so its extrema are those of G minus G_i, bit for bit
    top, bottom = lat.row_extrema(Gl0)
    Gi = Gl0[n0:]
    sup0 = max(0.0, float(np.max(top - Gi)), float(np.max(Gi - bottom)))
    tol_abs = tol * max(sup0, 1e-300)

    w = 0.25 * m * m * h * h
    Gl, Grows = lat.g_table()
    corr = np.zeros_like(Gl0)
    # per block: C rows below a carried row from the block below; the D rows
    # replace the C rows once D's increments are summed, and the block's last
    # C row is kept aside.  The last two D rows of the block below are carried
    # in two rows padded with the zeros of D beyond the diagonal: pad[0] holds
    # D_above, pad[1] the step of D down each diagonal (fixed eta) into it
    Cb = np.zeros((B + 1, W))
    C_last = np.zeros(W)
    pad = np.zeros((2, W + B + 1))
    D_above = pad[0, :W]
    # ahead[:, r] = pad[:, r + 1 : r + 1 + W], read at the block's row r
    ahead = np.lib.stride_tricks.sliding_window_view(pad, W, axis=1)[:, 1:]
    steps = np.arange(1.0, B + 1)[:, None]
    new = np.empty((B, W))
    # D restarts left of this column: the predecessor (r-1, c+1) is outside the band
    restart = np.concatenate([[W - 1], lat.cmin[:-1] - 1])
    changes, passes, ratios, contraction = [], [], [], []
    cumE, stepE, change = 0.0, 0.0, math.inf

    def assemble(r0, r1, D, out):
        """out = G(s_j) - G(s_i) + D on the rows r0 .. r1 - 1, with G's
        correction on the block's own columns prolonged from D."""
        # prolongation Corr(F(eta)) = Corr(eta) + (m^2/4) T(xi, eta) at eta*
        # for the columns j = n0 + r on this block; jstar < n0 + r0 is done
        p = slice(max(r0 - n0 - 1, 0), max(r1 - n0 - 1, 0))
        jj, js = lat.j_pro[p], lat.jstar[p]
        if jj.size:
            c1 = W - 1 - (jj - js)
            D1 = D[jj - n0 - r0, c1]
            D2 = D[jj - n0 - r0, np.minimum(c1 + 1, W - 1)]
            # one-sided linear extrapolation of (m^2/4) T(s_j, .) down to eta*
            tri = D1 - lat.u[p] * (D2 - D1) / lat.delta
            corr[jj] = (corr[js - 1] + lat.lam[p] * (corr[js] - corr[js - 1])
                        + tri)
        # only the O(m^2) correction is ever interpolated; the massless part
        # of G is exact at every node via F-pullback
        lo = max(n0 + r0 + 1 - W, 0)
        np.add(Gl0[lo:n0 + r1], corr[lo:n0 + r1], out=Gl[lo:n0 + r1])
        lat.fill_rows(Grows, r0, out, D)

    # a pass over a block reads only the carried rows Cb[0], D_above (and
    # cumE), which earlier, converged blocks left, so each pass of the block
    # restarts from them
    for r0, r1 in lat.blocks():
        b = r1 - r0
        home = phi[r0:r1] if keep else phi[:b]
        old, out = home, new[:b]
        k = np.arange(max(r0, 1), min(r1, n0 + 1))
        C = D = Cb[1:b + 1]
        # Cb[:b + 1] flat: Cf[q] = Cb[r, c] at q = r W + c, so Cf[q + 1] + Cf[q + W]
        # is Cb[r, c + 1] + Cb[r + 1, c], the sum at D[r, c]
        Cf, Df = Cb[:b + 1].reshape(-1), D.reshape(-1)
        # above[r], below[r] = D[r, 1:], D[r + 1, :-1]: one step down the diagonals
        above, below = D[:-1, 1:], D[1:, :-1]

        # q bounds the Lipschitz constant of a pass on this block in the sup
        # norm of the difference dphi of two iterates.  A C entry moves by at
        # most 2 (W - 1) sup|dphi|, and a D entry sums w times at most 2b - 1
        # of them.  A prolonged correction adds u/delta < 1 times D1 - D2,
        # whose C entries pair up into differences of at most 2 sup|dphi|,
        # but for one sum where the chain of D2 starts a row earlier.  An
        # initial-interval correction sums w E_k, each at most w (8k - 4)
        # sup|dphi|.  A new node reads one D entry and two corrections
        spread = 2.0 * w * (2 * b - 1)
        corr_q = ((spread * W + 4.0 * w * (W - 1) if r1 > n0 + 1 else 0.0)
                  + w * float(8 * k.sum() - 4 * k.size))
        q = spread * (W - 1) + 2.0 * corr_q
        # Banach: |phi* - phi_n| <= q / (1 - q) |phi_n - phi_(n-1)|
        stop = tol_abs * (1.0 - q) / q if 0.0 < q < 0.5 else tol_abs

        if r0:
            # first iterate from D extrapolated down each diagonal from the
            # two rows below: D[r, c] = D_above[c + r + 1] + (r + 1) step
            np.multiply(ahead[1, :b], steps[:b], out=D)
            D += ahead[0, :b]
            if k.size:
                corr[n0 + k] = corr[n0 - k] = cumE + (k - (r0 - 1)) * stepE
            assemble(r0, r1, D, old)
        else:
            lat.fill_rows(G0rows, r0, old)
        ratio = 0.0
        for n in range(n_max):
            # h C[k, c] = int_{s_j}^{s_i} phi dz: trapezoid, cumulated from the
            # diagonal; one add over the flattened block, whose sums across a
            # row end land on the diagonal column and are zeroed there
            flat = old.reshape(-1)
            np.add(flat[:-1], flat[1:], out=Cf[W:-1])
            C[:, -1] = 0.0
            np.cumsum(C[:, -2::-1], axis=1, out=C[:, -2::-1])

            # initial-interval correction: int_0^{|eta|} dy int_{-y}^{y} phi dz,
            # from E_k = C at (n0 + k, n0 - k) for k = 1 .. n0
            if k.size:
                E = Cb[k - r0 + 1, W - 1 - 2 * k] + Cb[k - r0, W + 1 - 2 * k]
                run = np.cumsum(np.concatenate([[cumE], w * E]))[1:]
                corr[n0 + k] = corr[n0 - k] = run

            C_last[:] = C[-1]                  # D is about to replace it
            # D[r, c] = (m^2/4) T(s_i, s_j) = D[r-1, c+1] + w (C[r-1, c+1] + C[r, c]),
            # zero where column j enters the band and on the diagonal; D is never
            # read outside the band.  The sums are one add over the flattened
            # rows into the idle out block (fill_rows writes all of it below;
            # the diagonal column takes sums across a row end and is zeroed),
            # scaled into the C rows, then cumulated down the diagonals
            sums = out.reshape(-1)
            np.add(Cf[1:b * W + 1], Cf[W:], out=sums)
            np.multiply(sums, w, out=Df)
            _clear_left(D, restart[r0:r1])
            D[:, -1] = 0.0
            np.add(D_above[1:], D[0, :-1], out=D[0, :-1])
            for up, row in zip(above, below):
                np.add(up, row, out=row)

            assemble(r0, r1, D, out)
            old -= out
            last, change = change, max(float(old.max()), -float(old.min()))
            if n:
                ratio = max(ratio, change / last)
            old, out = out, old
            if n == len(changes):
                changes.append(0.0)
            changes[n] = max(changes[n], change)
            if change <= stop:
                break
        else:
            raise NotConverged(
                "picard iteration: change %.3e > %.3e (tol %.3e) after %d passes "
                "on band rows %d-%d" % (change, stop, tol_abs, n_max, r0, r1 - 1),
                changes)
        passes.append(n + 1)
        ratios.append(ratio)
        contraction.append(q)
        if keep and old is not home:        # the last pass ended in new
            home[...] = old
        np.maximum(old.max(axis=1), -old.min(axis=1), out=row_sup[r0:r1])
        if on_block is not None:
            on_block(r0, r1, old)
        Cb[0] = C_last
        pad[1, :W - 1] = D[-2, 1:] if b > 1 else pad[0, 1:W]
        D_above[:] = D[-1]
        np.subtract(pad[0], pad[1], out=pad[1])
        if k.size:
            cumE, stepE = run[-1], w * E[-1]

    return PicardRun(lat, m, changes, passes, tol_abs, sup0, row_sup,
                     ratios, contraction)


def picard_solve(data, maps, m, resolution=256, t_max=5.0, tol=1e-9,
                 n_max=40):
    """Solve the massive problem up to t_max on an a(0)/resolution lattice.

    ``tol`` is relative to sup|phi^(0)|.  Each block of rows stops once its
    distance to the fixed point of its pass (given the converged rows below)
    is provably within tol_abs = tol sup|phi^(0)| by the contraction bound
    of ``_march``; where that bound is no contraction (q >= 1/2) it stops on
    a change within tol_abs.  At m = 0 the march returns the exact massless
    solution sampled on the lattice, after one pass per block.

    Raises
    ------
    IncompatibleData
        Corner compatibility conditions fail (propagated from the profile).
    NotConverged
        n_max passes did not bring the sup change of some block of rows below
        tolerance; ``n_max`` caps the passes of each block.
    """
    profile = build_initial_profile(data, maps)
    lat = _Lattice(maps, resolution, t_max)
    phi = np.empty((lat.R, lat.Wmax))
    return FieldGrid(_march(lat, profile, m, tol, n_max, phi=phi), profile, phi)


def picard_energy_series(data, maps, m, times, resolution=256, t_max=5.0,
                         tol=1e-9, n_max=40):
    """``picard_solve(...).energy_series(times)`` without keeping the band.

    Runs the march of ``picard_solve`` in one reused block buffer.  As each
    block converges, its nodes on the anti-diagonals L - 2, L, L + 2 that the
    energies read go into one flat slice buffer; node (i, L - i) sits at
    column Wmax - 1 - (2i - L) of row i - n0.  Returns (run, (t, E, share)):
    the PicardRun of the march and the arrays of ``energy_series``, bit for
    bit those of ``picard_solve`` and ``FieldGrid.energy_series``.
    Raises as ``picard_solve`` does.
    """
    profile = build_initial_profile(data, maps)
    lat = _Lattice(maps, resolution, t_max)
    L, n = lat.slice_plan(times)
    # every anti-diagonal read, once (np.unique would import numpy.ma): its
    # first row, node count and offset
    keys = np.sort(np.concatenate([L, L + 2, L - 2]))
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    lens = lat.slice_len(keys)[0]
    off = np.cumsum(lens) - lens
    i_lo = keys // 2
    buf = np.empty(int(lens.sum()))

    def take(r0, r1, rows):
        ia, ib = lat.n0 + r0, lat.n0 + r1
        lo, hi = np.maximum(i_lo, ia), np.minimum(i_lo + lens, ib)
        k = np.flatnonzero(hi > lo)
        cnt = hi[k] - lo[k]
        i = np.arange(int(cnt.sum())) + np.repeat(lo[k] - (np.cumsum(cnt) - cnt), cnt)
        buf[np.repeat(off[k] - i_lo[k], cnt) + i] = rows[
            i - ia, lat.Wmax - 1 - 2 * i + np.repeat(keys[k], cnt)]

    def gather(Ls, k):
        return buf[off[np.searchsorted(keys, Ls)][:, None] + np.arange(k)]

    run = _march(lat, profile, m, tol, n_max, on_block=take)
    return run, _energy_series(lat, m, L, n, gather)


# ---------------------------------------------------------------------------
# independent verification path through the M-set identity
# ---------------------------------------------------------------------------

def _quad_rects(fieldgrid, y0, y1, z0, z1, clipped):
    """Gauss quadrature (16 x 16 nodes) of the interpolated field over each
    (possibly clipped) backward rectangle [y0,y1]x[z0,z1]; 0 where y1 - y0 <=
    1e-14.  The nodes go to ``interp_phi`` at most _QUAD_NODES at a time."""
    q = np.zeros(len(y0))
    todo = np.nonzero(y1 - y0 > 1e-14)[0]
    step = _QUAD_NODES // len(_G16) ** 2
    for k in range(0, len(todo), step):
        r = todo[k:k + step]
        ya, yb, za, zb = y0[r, None], y1[r, None], z0[r, None], z1[r, None]
        yn = 0.5 * (ya + yb) + 0.5 * (yb - ya) * _G16
        yw = 0.5 * (yb - ya) * _W16
        zlo = np.where(clipped[r, None], np.maximum(za, -yn), za)
        span = np.maximum(zb - zlo, 0.0)[..., None]
        zn = zlo[..., None] + 0.5 * span * (1.0 + _G16)
        zw = 0.5 * span * _W16
        vals = fieldgrid.interp_phi(np.repeat(yn, len(_G16)), zn.ravel())
        q[r] = np.sum((yw[..., None] * zw * vals.reshape(zn.shape)).reshape(
            len(r), -1), axis=1)
    return q


def _sample_points(fieldgrid, samples, seed, accept):
    """(xi, eta) arrays of ``samples`` random interior points, drawn one at a
    time as (t, x) with a 4 delta margin and kept where accept(t, x, margin)."""
    lat = fieldgrid.lattice
    a = fieldgrid.maps.motion.a
    rng = np.random.default_rng(seed)
    margin = 4.0 * lat.delta
    pts = []
    while len(pts) < samples:
        t = rng.uniform(margin, lat.t_max - margin)
        x = rng.uniform(margin, float(a(t)) - margin)
        if accept(t, x, margin):
            pts.append((t + x, t - x))
    return np.array(pts, dtype=float).reshape(-1, 2).T


def verify_integral_identity(fieldgrid, samples=200, seed=0):
    """Max residual of phi = phi0 + (m^2/4) int_M theta phi at random points.

    The right side uses the signed backward-rectangle union M(xi, eta) with
    the converged field interpolated from the lattice and phi0 evaluated
    exactly; this is the independent geometry-route check of the solver.
    All samples are walked together and every rectangle of every sample is
    integrated in batched ``interp_phi`` calls.
    """
    xi, eta = _sample_points(fieldgrid, samples, seed,
                             lambda t, x, margin: x > margin)
    c, N = _backward_walk(fieldgrid.maps, xi, eta)
    # rectangle Q(B^n) of each point, n = 0 .. N, in rows of n
    n = np.arange(len(c) - 2)[:, None]
    live = n <= N
    q = np.zeros(live.shape)
    mid = c[1:-1][live]
    q[live] = _quad_rects(fieldgrid, mid, c[:-2][live], c[2:][live], mid,
                          (n == N)[live])
    sign = np.where(n % 2 == 0, -1.0, 1.0)         # (-1)^(n+1), as in union_M
    acc = np.cumsum(sign * q, axis=0)[-1]
    rhs = fieldgrid.profile.eval_phi(xi, eta) + 0.25 * fieldgrid.m**2 * acc
    lhs = fieldgrid.interp_phi(xi, eta)
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


def reflection_residual(fieldgrid, samples=500, seed=1):
    """Max residual of phi(xi,eta) + phi(B) + (m^2/4) int_Q phi over points
    with T(B) >= 0 (single backward reflection identity)."""
    maps = fieldgrid.maps
    xi, eta = _sample_points(
        fieldgrid, samples, seed,
        lambda t, x, margin: time_of(t - x, maps.F_inv(t + x)) >= margin)
    c = _backward_walk(maps, xi, eta)[0]
    # B = (c[1], c[2]) and Q(B^0) = [c[1], c[0]] x [c[2], c[1]]
    q = _quad_rects(fieldgrid, c[1], c[0], c[2], c[1], np.zeros(len(xi), bool))
    lhs = fieldgrid.interp_phi(xi, eta)
    phib = fieldgrid.interp_phi(c[1], c[2])
    return float(np.max(np.abs(lhs + phib + 0.25 * fieldgrid.m**2 * q),
                        initial=0.0))
