"""Circle-map analysis of the lift F: rotation number, periodic orbits,
hyperbolicity and the energy growth exponent.

Conventions
-----------
The rotation number is taken in the additive-lift sense

    rho = lim (F^n(x) - x) / n        (time units),

so a p:q resonance means rho = (p/q) * T.  Reports carry both the raw
estimate and this convention explicitly.  By Poincare's theorem rho is
exactly (p/q) T as soon as F^q(x) = x + pT has a solution, so
:func:`analyze_map` certifies a resonant rotation number by the periodic
orbit it finds anyway and runs the long orbit only when none is found
(``MapAnalysis.rotation_certified`` records the route); that orbit stops
as soon as the Farey bracket its steps put on rho is narrower than 2T/n
(:func:`rotation_bracket`).  The periodic orbits are ordered like those of
the rigid rotation, so :func:`find_periodic_points` scans one fundamental
domain of them and maps its roots around.  Besides the sign changes of
F^q - Id - pT between grid nodes it finds the roots that no sign change
shows: at the edge of a resonance zone (Arnold tongue) the attracting and
repelling orbits merge into one neutral orbit (a saddle-node), a double
root, and just inside the edge they form close pairs inside one grid cell.
A tongue edge is reported as :class:`NeutralPoint`, which also certifies
rho = (p/q) T.

For a resonant map the attracting periodic points a_i (multiplier
DF^q(a_i) < 1) drive exponential energy growth at rate

    gamma = -ln(DF^q(a_i0)) / (p T),

i0 minimizing the multiplier among the attractors.

All operations are pure functions of immutable maps; results are bitwise
deterministic for fixed iteration and panel counts.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from kgcavity._quadrature import gauss_panels, leggauss, simpson

__all__ = [
    "AmbiguousResonance",
    "DegenerateMap",
    "NeutralPoint",
    "NoAttractor",
    "NotHyperbolic",
    "PeriodicPoint",
    "MapAnalysis",
    "rotation_bracket",
    "rotation_number",
    "detect_resonance",
    "find_periodic_points",
    "growth_exponent",
    "basin_intervals",
    "asymptotic_coefficients",
    "weighted_integral",
    "analyze_map",
]

NEUTRAL_TOL = 1e-8
#: orbit steps per orbit_translation call of rotation_bracket; its numpy
#: update of the bracket per chunk costs about 5 % of the chunk's steps
ORBIT_CHUNK = 512
#: per orbit step, in units of T: the rounding an orbit accumulates reached
#: 1.05e-9 T per step (3.9e-5 T after 1e5 steps of the quasi-periodic
#: sinusoidal(0.66, 0.14, 1), against the same orbit reduced mod T at every
#: step), so a step within BRACKET_MARGIN * k of an integer may have its
#: floor decided by rounding and counts for neither end of the bracket
BRACKET_MARGIN = 1e-8
# rotation_bracket stops once (hi - lo) n is below this
_CLOSED = 2 * (1 - Fraction(1, 10**9))
#: orbit steps, at most, that propose the p/q a periodic orbit then certifies
SHORT_ORBIT = 1000
#: grid nodes per unit of q in the periodic-point scan of [-a(0), a(0))
SCAN_SAMPLES = 10_000
ROOT_TOL = 1e-12
DEGENERATE_TOL = 1e-9
#: weight_l stops once |F^q(y) - pT - y| <= WEIGHT_TOL or after WEIGHT_KMAX factors
WEIGHT_TOL = 1e-10
WEIGHT_KMAX = 10_000


class AmbiguousResonance(ValueError):
    """More than one reduced fraction p/q with q <= max_q fits the error bar."""


class DegenerateMap(ValueError):
    """F^q(x) - x - pT vanishes identically: every point is periodic."""


class NeutralPoint(ValueError):
    """An isolated periodic point has |DF^q - 1| <= tolerance."""

    def __init__(self, x, multiplier):
        super().__init__("neutral periodic point at x=%.15g (DF^q=%.15g)" % (x, multiplier))
        self.x = x
        self.multiplier = multiplier


class NoAttractor(ValueError):
    """No attracting periodic point with multiplier < 1."""


class NotHyperbolic(ValueError):
    """The alternating attractor/repeller interval structure is absent."""


@dataclass(frozen=True)
class PeriodicPoint:
    """Location, multiplier DF^q(x) and stability kind of a periodic point."""

    x: float
    multiplier: float
    kind: str  # "attracting" | "repelling"


@dataclass
class MapAnalysis:
    """Full diagnostic record of one lift F.

    ``intervals`` holds the basin intervals J_i (one list of (lo, hi) pairs
    per attractor, inside [-a(0), a(0))); ``J`` is their union over the
    attractors attaining the minimal multiplier, found by following the
    orbits of those that tie it.
    """

    rotation_estimate: float
    rotation_half_width: float
    rotation_iterations: int
    rotation_certified: bool = False          # rho = pT/q from a periodic orbit
    convention: str = "rho = lim (F^n(x)-x)/n; resonance when rho = (p/q) T"
    resonance: tuple | None = None           # (p, q) coprime
    periodic_points: list = field(default_factory=list)
    gamma: float | None = None
    intervals: list = field(default_factory=list)
    J: list = field(default_factory=list)
    i0: int | None = None
    m0_heuristic: float | None = None
    status: str = "ok"

    def to_dict(self):
        d = {
            "rotation_estimate": self.rotation_estimate,
            "rotation_half_width": self.rotation_half_width,
            "rotation_iterations": self.rotation_iterations,
            "rotation_certified": self.rotation_certified,
            "convention": self.convention,
            "resonance": None if self.resonance is None else {"p": self.resonance[0], "q": self.resonance[1]},
            "periodic_points": [
                {"x": p.x, "multiplier": p.multiplier, "kind": p.kind} for p in self.periodic_points
            ],
            "gamma": self.gamma,
            "intervals_J_i": [[list(iv) for iv in ivs] for ivs in self.intervals],
            "J": [list(iv) for iv in self.J],
            "i0": self.i0,
            "m0_heuristic": self.m0_heuristic,
            "status": self.status,
        }
        return d


def rotation_bracket(maps, iterations, x0=0.0):
    """(estimate, lo, hi): rho / T lies in [lo, hi], estimate within T/n of rho.

    With d_k = F^k(x0) - x0 and p_k = floor(d_k / T), the lift
    G = F^k - p_k T has G(x0) >= x0, so by monotonicity G^j(x0) >= x0 for
    every j and rho >= p_k T / k; d_k < (p_k + 1) T gives
    rho <= (p_k + 1) T / k in the same way (Poincare; Katok & Hasselblatt,
    ch. 11).  The orbit is walked ORBIT_CHUNK steps per
    :meth:`~kgcavity.boundary.CharacteristicMaps.orbit_translation` call,
    and lo = max p_k / k and hi = min (p_k + 1) / k are kept as exact
    fractions.  The walk stops once hi - lo < (2 / n)(1 - 1e-9), the slack
    keeping the rounded midpoint within T/n of both ends, and the estimate
    is that midpoint.  Otherwise all n = ``iterations`` steps are walked and
    the estimate is d_n / n, which is within T/n of rho by Herman's
    inequality, clamped into [lo T, hi T].

    A step whose d_k / T lies within BRACKET_MARGIN * k of an integer
    counts for neither end, since rounding may decide its floor.  When no
    step counts, lo and hi are None: a rigid rotation, or an orbit started
    on a fixed point, keeps the estimate d_n / n bit for bit.
    """
    n = int(iterations)
    if n < 1:
        raise ValueError("iterations must be >= 1")
    T = maps.T
    x = float(x0)
    done, total = 0, 0.0
    lo = hi = None
    while done < n:
        steps = maps.orbit_translation(x, min(ORBIT_CHUNK, n - done))
        k = np.arange(done + 1, done + len(steps) + 1)
        r = (total + np.asarray(steps)) / T
        p = np.floor(r)
        keep = np.minimum(r - p, p + 1.0 - r) > BRACKET_MARGIN * k
        if keep.any():
            k, p = k[keep], p[keep]
            i, j = np.argmax(p / k), np.argmin((p + 1.0) / k)
            below = Fraction(int(p[i]), int(k[i]))
            above = Fraction(int(p[j]) + 1, int(k[j]))
            lo = below if lo is None else max(lo, below)
            hi = above if hi is None else min(hi, above)
        done += len(steps)
        total += steps[-1]
        x += steps[-1]
        if lo is not None and (hi - lo) * n < _CLOSED:
            return float((lo + hi) / 2) * T, lo, hi
    est = total / n
    if lo is not None:
        est = min(max(est, float(lo) * T), float(hi) * T)
    return est, lo, hi


def rotation_number(maps, iterations, x0=0.0):
    """Estimate rho from the orbit of x0 with the rigorous half-width T/n.

    The estimate is that of :func:`rotation_bracket`, whose walk stops as
    soon as the orbit's bracket on rho is narrower than 2T/n, so the true
    rotation number is always inside [estimate - T/n, estimate + T/n].
    """
    return rotation_bracket(maps, iterations, x0)[0], maps.T / int(iterations)


def detect_resonance(estimate, half_width, T, max_q):
    """Smallest-denominator p/q with |estimate - (p/q) T| <= half_width.

    Returns the coprime pair (p, q) with q <= max_q, or None when no such
    rational exists.  Raises :class:`AmbiguousResonance` when two distinct
    reduced fractions both fit inside the error bar.
    """
    if max_q < 1:
        raise ValueError("max_q must be >= 1")
    r = estimate / T
    w = half_width / T
    hits = []
    for q in range(1, int(max_q) + 1):
        for p in {math.floor(r * q), math.ceil(r * q)}:
            if p < 1:
                continue
            if math.gcd(p, q) != 1:
                continue
            if abs(r - p / q) <= w:
                hits.append((p, q))
    if not hits:
        return None
    if len(hits) > 1:
        raise AmbiguousResonance(
            "fractions %s all lie within %g of %g" % (hits, half_width, estimate))
    return hits[0]


def _g_and_multiplier(maps, x, p, q):
    """g(x) = F^q(x) - x - pT and DF^q(x) as an orbit product, vectorized."""
    y = np.asarray(x, dtype=float).copy()
    mult = np.ones_like(y)
    for _ in range(q):
        y, d = maps.F_and_dF(y)
        mult = mult * d
    return y - np.asarray(x, dtype=float) - p * maps.T, mult


def _orbit_images(maps, xs, q):
    """x, F(x), ..., F^{q-1}(x) for every x in ``xs``, as one array."""
    orbit = [np.asarray(xs, dtype=float)]
    for _ in range(q - 1):
        orbit.append(maps.F(orbit[-1]))
    return np.concatenate(orbit)


def _cell_extrema(maps, xs, g, dg, cells, tol, p, q):
    """Double roots and close pairs of g = F^q - Id - pT inside the grid cells
    [xs[i], xs[i + 1]], i in ``cells``, whose nodes share the sign of g while
    g' = ``dg`` = DF^q - 1 changes sign.

    Where g is concave on a cell it lies below both node tangents (above them
    where convex), so a cell whose tangents meet farther than ``tol`` from 0,
    on the side of its nodes, holds no root unless g'' changes sign in it too;
    such cells are dropped unrefined.  In the others the extremum of g is
    refined by a safeguarded secant on g', vectorized over the cells like the
    Newton polish of :func:`_grid_roots`: a step that leaves the bracket is
    replaced by its midpoint, and a cell is done once its step is no longer
    than ROOT_TOL (the step is not taken), g' vanishes or its bracket is no
    wider than ROOT_TOL.  An extremum with |g| <= ``tol`` is a double root,
    with multiplier 1 up to that step; one where g has the sign opposite to
    the nodes splits its cell into two brackets of a close pair.

    Returns the double roots, then the brackets' ends a, b and g(a), g(b).
    """
    ga, gb, da, db = g[cells], g[cells + 1], dg[cells], dg[cells + 1]
    # the tangents at both nodes meet s past the left node
    s = (gb - ga - db * (xs[cells + 1] - xs[cells])) / (da - db)
    keep = (ga + da * s) * np.sign(ga) <= tol
    cells, ga, gb, da, db = cells[keep], ga[keep], gb[keep], da[keep], db[keep]
    a, b = xs[cells], xs[cells + 1]
    x = a - da * ((b - a) / (db - da))
    xp, dp = a.copy(), da.copy()
    gx = np.empty_like(x)
    act = np.arange(x.size)
    for _ in range(64):
        if not act.size:
            break
        gx[act], mult = _g_and_multiplier(maps, x[act], p, q)
        d = mult - 1.0
        left = da[act] * d <= 0.0
        b[act[left]] = x[act[left]]
        right = act[~left]
        a[right], da[right] = x[right], d[~left]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = d * ((x[act] - xp[act]) / (d - dp[act]))
        xn = x[act] - step
        inside = (xn > a[act]) & (xn < b[act])
        xn[~inside] = 0.5 * (a[act] + b[act])[~inside]
        done = (inside & (np.abs(step) <= ROOT_TOL)) | (d == 0.0) | (b[act] - a[act] <= ROOT_TOL)
        xp[act], dp[act] = x[act], d
        x[act] = np.where(done, x[act], xn)
        act = act[~done]
    double = np.abs(gx) <= tol
    roots = x[double]
    split = ~double & (gx * ga < 0.0)
    x, gx, ga, gb, cells = x[split], gx[split], ga[split], gb[split], cells[split]
    return (roots, np.concatenate([xs[cells], x]), np.concatenate([x, xs[cells + 1]]),
            np.concatenate([ga, gx]), np.concatenate([gx, gb]))


def _grid_roots(maps, lo, dx, idx, p, q):
    """g on the grid nodes lo + i dx (i in the sorted array ``idx``), and its
    roots there: exact node hits (|g| <= 1e-13 max(1, |p| T)), the double
    roots and close pairs of :func:`_cell_extrema` between adjacent nodes of
    one sign where g' = DF^q - 1 changes sign, and the root of every bracket:
    each sign change between adjacent nodes, and each half of a cell split by
    a close pair, polished by safeguarded Newton on g.

    Each bracket starts at its secant point.  A Newton step that leaves the
    bracket, which every evaluation narrows, is replaced by its midpoint.  A
    root is done once its Newton step is no longer than ROOT_TOL (and that
    step is taken), g vanishes there, or its bracket is no wider than ROOT_TOL.
    """
    xs = lo + dx * idx
    g, mult = _g_and_multiplier(maps, xs, p, q)
    tol = 1e-13 * max(1.0, abs(p) * maps.T)
    dg = mult - 1.0
    sides = np.sign(g[:-1]) * np.sign(g[1:])
    adjacent = idx[1:] == idx[:-1] + 1
    crossings = np.nonzero(adjacent & (sides < 0.0))[0]
    turns = np.nonzero(adjacent & (sides > 0.0) & (dg[:-1] * dg[1:] < 0.0))[0]
    doubles, a, b, fa, fb = _cell_extrema(maps, xs, g, dg, turns, tol, p, q)
    a, b = np.concatenate([xs[crossings], a]), np.concatenate([xs[crossings + 1], b])
    fa, fb = np.concatenate([g[crossings], fa]), np.concatenate([g[crossings + 1], fb])
    x = a - fa * ((b - a) / (fb - fa))
    act = np.arange(x.size)
    for _ in range(64):
        if not act.size:
            break
        fx, mult = _g_and_multiplier(maps, x[act], p, q)
        left = fa[act] * fx <= 0.0
        b[act[left]] = x[act[left]]
        right = act[~left]
        a[right], fa[right] = x[right], fx[~left]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = fx / (mult - 1.0)
        xn = x[act] - step
        inside = (xn > a[act]) & (xn < b[act])
        xn[~inside] = 0.5 * (a[act] + b[act])[~inside]
        done = (inside & (np.abs(step) <= ROOT_TOL)) | (fx == 0.0) | (b[act] - a[act] <= ROOT_TOL)
        x[act] = np.where(fx == 0.0, x[act], xn)
        act = act[~done]
    # exact hits on nodes (e.g. a repeller pinned at -a(0)) come first
    return g, np.concatenate([xs[np.abs(g) <= tol], x, doubles])


def find_periodic_points(maps, p, q):
    """All periodic points F^q(x) = x + pT on [lo, hi) = [-a(0), a(0)).

    The roots of g = F^q - Id - pT are found on the grid of nodes
    lo + i dx, 0 <= i <= n, dx = 2 a(0) / n, n = max(SCAN_SAMPLES q, 1024):
    exact node hits, one root per sign change between adjacent nodes, and
    the roots a cell hides where g keeps its sign but g' = DF^q - 1 changes
    it (the double root of a tongue edge, or a close pair just inside it),
    each polished to a step of 1e-12 (:func:`_grid_roots`).
    Only one fundamental domain of the p:q orbits is
    scanned in full: with s p = 1 (mod q) and r = (s p - 1)/q, the lift
    G = F^s - rT has rotation number T/q when F has pT/q, so every p:q
    orbit has exactly one point in [lo, G(lo)) (Poincare: the orbit is
    ordered like the rigid rotation, and G steps each point to its right
    neighbour).  That scan runs two nodes past G(lo), so a root on lo also
    shows as a sign change at G(lo).  Each root found there is mapped to
    its orbit images F^k(x) + jT (the same set as G^k(x) + jT), and the
    grid is scanned again on the four nodes around every image, which
    finds the roots a scan of all n + 1 nodes would find, bracket for bracket.
    When the domain is not shorter than [lo, hi) (every q = 1 with
    2 a(0) <= T) all n + 1 nodes are scanned at once.  Roots are then
    deduplicated and classified by their multipliers DF^q, all taken in
    one orbit pass.

    Raises
    ------
    DegenerateMap
        g vanishes identically on the interval (rigid translation).
    NeutralPoint
        A root has |DF^q - 1| <= 1e-8: a root near which g is flat, or a
        double root between grid nodes, where |g| at the extremum is within
        1e-13 max(1, |p| T) (the saddle-node at the edge of a tongue).  The
        hyperbolicity assumptions exclude this case.
    """
    p, q = int(p), int(q)
    if math.gcd(p, q) != 1:
        raise ValueError("(p, q) must be coprime")
    lo, hi = -maps.a0, maps.a0
    T = maps.T
    n = max(SCAN_SAMPLES * q, 1024)
    dx = (hi - lo) / n
    # G(lo) = F^s(lo) - rT; pow(p, -1, 1) = 0 makes G = Id + T for q = 1
    s = pow(p, -1, q)
    top = lo
    for _ in range(s):
        top = maps.F(top)
    top -= (s * p - 1) // q * T
    nodes = min(max(math.ceil((top - lo) / dx) + 2, 2), n + 1)
    g, roots = _grid_roots(maps, lo, dx, np.arange(nodes), p, q)
    if np.max(np.abs(g)) <= DEGENERATE_TOL * max(1.0, abs(p) * T):
        raise DegenerateMap("F^q - Id - pT vanishes identically on [%g, %g)" % (lo, hi))

    if nodes <= n and roots.size:
        # every orbit image in [lo, hi), then the four nodes around each
        v = _orbit_images(maps, roots, q)
        shifts = T * np.arange(math.floor((lo - v.max()) / T), math.ceil((hi - v.min()) / T) + 1)
        cells = np.floor((np.add.outer(v, shifts) - lo) / dx).astype(int)
        # np.unique without its numpy.ma import: sort, drop adjacent repeats
        idx = np.sort(np.add.outer(cells.ravel(), np.arange(-1, 3)), axis=None)
        idx = idx[np.concatenate([[True], idx[1:] != idx[:-1]])]
        _, roots = _grid_roots(maps, lo, dx, idx[(idx >= 0) & (idx <= n)], p, q)

    # dedupe and keep the half-open interval convention: a root closer to hi
    # than the dedupe distance is the periodic point on hi, which the last
    # cell's Newton polish can return just below hi
    roots = sorted(r for r in roots.tolist() if lo - 1e-12 <= r < hi - 1e-10)
    dedup = []
    for r in roots:
        if not dedup or r - dedup[-1] > 1e-10:
            dedup.append(r)
    if not dedup:
        return []

    _, mults = _g_and_multiplier(maps, np.asarray(dedup, dtype=float), p, q)
    points = []
    for r, mult in zip(dedup, mults.tolist()):
        if abs(mult - 1.0) <= NEUTRAL_TOL:
            raise NeutralPoint(r, mult)
        kind = "attracting" if mult < 1.0 else "repelling"
        points.append(PeriodicPoint(float(r), mult, kind))
    return points


def _basin_pieces(maps, points, lo, hi):
    """Basin pieces of each attractor of ``points``, the periodic points of
    the fundamental domain D = [lo, hi) = [lo, F(lo)).

    The basin of an attractor a is the open interval between its neighbour
    repellers.  They lie in (F^{-1}(a), F(a)), inside F^{-1}(D), D and F(D),
    so they are among the F^{-1}(r), r and F(r) over the repellers r of
    ``points``.  The basin and its F^{-1} and F images are clipped into D
    (every orbit meets D once); pieces no longer than 1e-12 are dropped.
    Returns one sorted list of (lo, hi) pieces per attractor.
    """
    attract = [pt for pt in points if pt.kind == "attracting"]
    repel = [pt.x for pt in points if pt.kind == "repelling"]
    if not attract or not repel:
        raise NotHyperbolic("need at least one attractor and one repeller in [%g, %g)"
                            % (lo, hi))
    reps = [y for r in repel for y in (maps.F_inv(r), r, maps.F(r))]
    pieces = []
    for pt in attract:
        left = max((r for r in reps if r < pt.x - 1e-10), default=None)
        right = min((r for r in reps if r > pt.x + 1e-10), default=None)
        if left is None or right is None:
            raise NotHyperbolic("attractor %g lacks neighboring repellers" % pt.x)
        segs = ((maps.F_inv(left), maps.F_inv(right)), (left, right),
                (maps.F(left), maps.F(right)))
        pieces.append(sorted((max(u, lo), min(v, hi)) for u, v in segs
                             if min(v, hi) - max(u, lo) > 1e-12))
    return pieces


def basin_intervals(maps, points):
    """Basin intervals J_i of each attractor, inside I0 = [-a(0), a(0)).

    ``points`` are the periodic points of I0, the fundamental domain
    [-a(0), F(-a(0))).  J_i is the basin of a_i (the open interval between
    its neighbour repellers) with its F^{-1} and F images, clipped into I0 by
    :func:`_basin_pieces`; pieces that touch are merged.
    """
    intervals = []
    for pieces in _basin_pieces(maps, points, -maps.a0, maps.a0):
        merged = []
        for lo_c, hi_c in pieces:
            if merged and lo_c <= merged[-1][1] + 1e-12:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi_c))
            else:
                merged.append((lo_c, hi_c))
        intervals.append(merged)
    return intervals


def growth_exponent(maps, points, p, q):
    """gamma, index i0 and the union J from the minimal attractor multiplier.

    gamma = -ln(DF^q(a_i0)) / (pT) with a_i0 the attractor of smallest
    multiplier; J unions the basin intervals of every attractor whose
    multiplier is the minimum.  Points of one orbit share their multiplier
    only up to rounding (1.5e-10 relative at 15:17), so a tie within 1e-12
    picks the orbits (a_i0's, and any other with the same multiplier, as on
    a wall with a half-period symmetry) and each is followed through F: an
    attractor is on one when some image F^k(a), 0 <= k < q, of a tied
    attractor a lies closer to it modulo T than every image F^k(r) of a
    repeller r.  Also returns the safe-mass heuristic sqrt(gamma / a_max).
    """
    attract = [pt for pt in points if pt.kind == "attracting"]
    if not attract:
        raise NoAttractor("no attracting periodic point with DF^q < 1")
    mults = [pt.multiplier for pt in attract]
    i0 = int(np.argmin(mults))
    mu = mults[i0]
    gamma = -math.log(mu) / (p * maps.T)
    intervals = basin_intervals(maps, points)
    T = maps.T

    def distance(x, ys):
        # distance on the circle R / TZ
        return float(np.min(np.abs(np.mod(x - ys + 0.5 * T, T) - 0.5 * T)))

    orbit = _orbit_images(maps, [pt.x for pt in attract if pt.multiplier <= mu * (1.0 + 1e-12)], q)
    repellers = _orbit_images(maps, [pt.x for pt in points if pt.kind == "repelling"], q)
    J = []
    for i, pt in enumerate(attract):
        if distance(pt.x, orbit) < distance(pt.x, repellers):
            J.extend(intervals[i])
    J.sort()
    m0 = math.sqrt(gamma / maps.motion.a_max)
    return gamma, i0, intervals, J, m0


def weight_l(maps, x, mu_a, p, q):
    """Infinite product l(x) = prod_k mu_a / DF^q(F^{kq}(x)), truncated.

    ``mu_a`` is the multiplier DF^q(a_i) of the attractor whose basin holds
    x.  The orbit y -> F^q(y) - pT contracts geometrically onto a periodic
    point of the orbit of a_i, whose multiplier is mu_a up to rounding, so
    the factors tend to 1.  Truncation stops once the fixed-point residual
    |F^q(y) - pT - y| drops below WEIGHT_TOL — proportional to the distance
    from the limit point, which bounds the dropped log-tail by
    O(WEIGHT_TOL) through the local linearization — or after WEIGHT_KMAX
    factors.
    """
    y = np.asarray(x, dtype=float).copy()
    logl = np.zeros_like(y)
    active = np.ones(y.shape, dtype=bool)
    for _ in range(WEIGHT_KMAX):
        if not np.any(active):
            break
        g, mult = _g_and_multiplier(maps, y[active], p, q)
        logl[active] += math.log(mu_a) - np.log(mult)
        y[np.nonzero(active)[0]] += g
        idx = np.nonzero(active)[0]
        active[idx[np.abs(g) <= WEIGHT_TOL]] = False
    return np.exp(logl)


def asymptotic_coefficients(maps, f, points, p, q):
    """Coefficients A_i = || sqrt(l_i) f ||^2 over the basin pieces J_i.

    Works on the fundamental interval [a_1, F(a_1)) of the first attractor
    a_1 of ``points`` (the periodic points of [-a(0), a(0))), the natural
    domain for the weighted-integral asymptotics

        int f^2 / DF^{nq} = sum_i A_i [DF^q(a_i)]^{-n} + o(mu_i0^{-n}).

    Its periodic points are those of ``points`` at or above a_1 and the
    F-images of the others, which keep their multipliers.  The basin pieces
    of :func:`_basin_pieces` stay unmerged, so no Gauss panel straddles a
    repeller.  ``f`` is a vectorized callable on [a_1, F(a_1)).  Returns
    (attractor, A_i) pairs, attractors in increasing order on [a_1, F(a_1)).
    """
    attract = [pt for pt in points if pt.kind == "attracting"]
    if not attract:
        raise NotHyperbolic("no attracting periodic points")
    a1 = attract[0].x
    pts = sorted((pt if pt.x >= a1 else PeriodicPoint(maps.F(pt.x), pt.multiplier, pt.kind)
                  for pt in points), key=lambda pt: pt.x)
    nodes, weights = leggauss(64)
    coeffs = []
    for pt, pieces in zip([pt for pt in pts if pt.kind == "attracting"],
                          _basin_pieces(maps, pts, a1, maps.F(a1))):
        edges = [np.linspace(lo, hi, 33) for lo, hi in pieces]   # 32 panels each
        xm, wm = gauss_panels(np.concatenate([e[:-1] for e in edges]),
                              np.concatenate([e[1:] for e in edges]), nodes, weights)
        xm, wm = xm.ravel(), wm.ravel()
        lv = weight_l(maps, xm, pt.multiplier, p, q)
        fv = np.asarray(f(xm), dtype=float)
        coeffs.append((pt, max(float(np.sum(wm * lv * fv**2)), 0.0)))
    return coeffs


def weighted_integral(maps, t, j, panels=1024):
    """S_j(t) = integral of (DF^{-j})^2 over (h(t), k(t)) by composite Simpson.

    DF^{-j} is evaluated as 1 / DF^j at the end of the backward orbit, with
    DF^j the product of DF(F^{-1}(x)) = 1 / (F^{-1})'(x) along it: one
    inverse solve per step.  ``panels`` >= 2 uniform panels go through
    :func:`kgcavity._quadrature.simpson` (Cartwright's last-interval
    correction when the count is odd).  The integral is recomputed on
    ``panels // 2`` panels and the difference reported as an error estimate.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    if int(panels) < 2:
        raise ValueError("panels must be >= 2")
    lo = float(maps.h(t))
    hi = float(maps.k(t))

    def integrand(y):
        y = np.asarray(y, dtype=float)
        prod, cur = np.ones_like(y), y
        for _ in range(int(j)):
            cur, d = maps.F_inv_and_dF(cur)
            prod = prod * d
        return 1.0 / prod**2

    def rule(n):
        return simpson(integrand(np.linspace(lo, hi, n + 1)), (hi - lo) / n)

    val = rule(int(panels))
    return val, abs(val - rule(int(panels) // 2))


def analyze_map(maps, rotation_iterations=100_000, max_q=20):
    """Run the full analysis pipeline on one lift and return a MapAnalysis.

    With n = ``rotation_iterations`` > max(SHORT_ORBIT, 2 max_q^2), a
    resonant rotation number is certified by its periodic orbit first: an
    orbit of SHORT_ORBIT steps proposes p/q (bar T/SHORT_ORBIT), and if
    ``find_periodic_points(p, q)`` finds a root of F^q - Id - pT (or raises
    DegenerateMap or NeutralPoint, which also mean a root), rho = pT/q
    exactly by Poincare's theorem; at a tongue edge the NeutralPoint is the
    double root :func:`find_periodic_points` finds between its grid nodes, so
    no long orbit runs there either.  The estimate is then pT/q, the
    half-width stays T/n and the scan is the one the analysis uses.  Every
    output but the estimate is what the n-step orbit gives: that orbit lies
    within T/n of pT/q, and a second fraction within 2T/n of p/q with
    q' <= max_q would contradict |p/q - p'/q'| >= 1/(q q') > 2/n.  Without a
    certificate :func:`rotation_number` walks the orbit of at most n steps
    (a scan already made for the same p/q is reused).

    Errors from the sub-steps (degenerate map, neutral point, no resonance,
    no attractor) are recorded in ``status`` instead of propagating, so
    parameter scans can log them per point.
    """
    n = int(rotation_iterations)
    scans = {}

    def scan(res):
        if res not in scans:
            try:
                scans[res] = find_periodic_points(maps, *res)
            except (DegenerateMap, NeutralPoint) as exc:
                scans[res] = exc
        return scans[res]

    analysis = None
    if n > max(SHORT_ORBIT, 2 * max_q ** 2):
        try:
            res = detect_resonance(*rotation_number(maps, SHORT_ORBIT), maps.T, max_q)
        except AmbiguousResonance:
            res = None
        # a root, or DegenerateMap / NeutralPoint, certifies rho = pT/q
        if res is not None and scan(res) != []:
            p, q = res
            analysis = MapAnalysis(rotation_estimate=p * maps.T / q,
                                   rotation_half_width=maps.T / n,
                                   rotation_iterations=n, rotation_certified=True)
    if analysis is None:
        est, hw = rotation_number(maps, n)
        analysis = MapAnalysis(rotation_estimate=est, rotation_half_width=hw,
                               rotation_iterations=n)
        try:
            res = detect_resonance(est, hw, maps.T, max_q)
        except AmbiguousResonance as exc:
            analysis.status = "AmbiguousResonance: %s" % exc
            return analysis
        if res is None:
            analysis.status = "no_resonance"
            return analysis
    analysis.resonance = res
    p, q = res
    points = scan(res)
    if isinstance(points, DegenerateMap):
        analysis.status = "DegenerateMap"
        return analysis
    if isinstance(points, NeutralPoint):
        analysis.status = "NeutralPoint at x=%.12g" % points.x
        return analysis
    analysis.periodic_points = points
    if not points:
        analysis.status = "no_periodic_points"
        return analysis
    try:
        gamma, i0, intervals, J, m0 = growth_exponent(maps, points, p, q)
    except (NoAttractor, NotHyperbolic) as exc:
        analysis.status = type(exc).__name__
        return analysis
    analysis.gamma = gamma
    analysis.i0 = i0
    analysis.intervals = intervals
    analysis.J = J
    analysis.m0_heuristic = m0
    return analysis
