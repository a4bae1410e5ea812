"""Circle-map analysis of the lift F: rotation number, periodic orbits,
hyperbolicity and the energy growth exponent.

Conventions
-----------
The rotation number is taken in the additive-lift sense

    rho = lim (F^n(x) - x) / n        (time units),

so a p:q resonance means rho = (p/q) * T.  Reports carry both the raw
estimate and this convention explicitly.

For a resonant map the attracting periodic points a_i (multiplier
DF^q(a_i) < 1) drive exponential energy growth at rate

    gamma = -ln(DF^q(a_i0)) / (p T),

i0 minimizing the multiplier among the attractors.

All operations are pure functions of immutable maps; results are bitwise
deterministic for fixed iteration and panel counts.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AmbiguousResonance",
    "DegenerateMap",
    "NeutralPoint",
    "NoAttractor",
    "NotHyperbolic",
    "PeriodicPoint",
    "MapAnalysis",
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
ROOT_TOL = 1e-12
DEGENERATE_TOL = 1e-9


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
    per attractor, inside [-a(0), a(0))); ``J`` is the union over attractors
    attaining the minimal multiplier.
    """

    rotation_estimate: float
    rotation_half_width: float
    rotation_iterations: int
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


def rotation_number(maps, iterations, x0=0.0):
    """Estimate rho = (F^n(x) - x)/n with the rigorous half-width T/n.

    The half-width follows from the Herman inequality
    -T/n < (F^n(x) - x)/n - rho(F) < T/n, so the true rotation number is
    always inside [estimate - T/n, estimate + T/n].
    """
    n = int(iterations)
    if n < 1:
        raise ValueError("iterations must be >= 1")
    total = maps.orbit_translation(x0, n)
    return total / n, maps.T / n


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


def find_periodic_points(maps, p, q, samples=10_000, lo=None, hi=None):
    """All periodic points F^q(x) = x + pT on [lo, hi) (default [-a(0), a(0))).

    Sign-change scan on a dense grid, then one batched bisection of every
    bracket to 1e-12; each root is classified by its multiplier DF^q, all
    taken in one orbit pass.

    Raises
    ------
    DegenerateMap
        g vanishes identically on the interval (rigid translation).
    NeutralPoint
        An isolated root has |DF^q - 1| <= 1e-8; the hyperbolicity
        assumptions exclude this case.
    """
    if math.gcd(int(p), int(q)) != 1:
        raise ValueError("(p, q) must be coprime")
    a0 = maps.a0
    if lo is None:
        lo = -a0
    if hi is None:
        hi = a0
    n = max(int(samples) * int(q), 1024)
    xs = np.linspace(lo, hi, n, endpoint=False)
    g, _ = _g_and_multiplier(maps, xs, p, q)

    scale = max(1.0, abs(p) * maps.T)
    if np.max(np.abs(g)) <= DEGENERATE_TOL * scale:
        raise DegenerateMap("F^q - Id - pT vanishes identically on [%g, %g)" % (lo, hi))

    roots = []
    # exact hits on scan nodes (e.g. a repeller pinned at -a(0))
    node_zero = np.abs(g) <= 1e-13 * scale
    roots.extend(xs[node_zero].tolist())

    # bisect every sign-change bracket in one vector pass; a bracket drops out
    # of the active set once it is no wider than ROOT_TOL
    sign = np.sign(g)
    crossings = np.nonzero((sign[:-1] * sign[1:] < 0.0))[0]
    dx = xs[1] - xs[0]
    a = xs[crossings]
    b = a + dx
    fa = g[crossings]
    active = np.ones(a.shape, dtype=bool)
    for _ in range(64):
        idx = np.nonzero(active)[0]
        if not idx.size:
            break
        m = 0.5 * (a[idx] + b[idx])
        fm, _ = _g_and_multiplier(maps, m, p, q)
        left = fa[idx] * fm <= 0.0
        b[idx[left]] = m[left]
        right = idx[~left]
        a[right], fa[right] = m[~left], fm[~left]
        active[idx] = b[idx] - a[idx] > ROOT_TOL
    roots.extend((0.5 * (a + b)).tolist())

    # dedupe and keep the half-open interval convention
    roots = sorted(r for r in roots if lo - 1e-12 <= r < hi - 1e-13)
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


def basin_intervals(maps, points, p, q):
    """Basin intervals J_i of each attractor, clipped into I0 = [-a(0), a(0)).

    J_i is the open interval between the repellers neighboring attractor
    a_i, mapped into I0 by F^j for j in {-1, 0, 1} where it reaches outside
    (outlying parts of the basin re-enter I0 under one application of F or
    its inverse).
    """
    a0 = maps.a0
    attract = [pt for pt in points if pt.kind == "attracting"]
    repel = [pt for pt in points if pt.kind == "repelling"]
    if not attract or not repel:
        raise NotHyperbolic("need at least one attractor and one repeller in I0")

    # periodic points translate by T and map by F; build repellers on a
    # window wide enough to bracket every attractor in I0
    reps = set()
    for pt in repel:
        for base in (pt.x, float(maps.F(pt.x)), float(maps.F_inv(pt.x))):
            kmin = int(math.floor((-a0 - 3.0 * maps.T - base) / maps.T))
            kmax = int(math.ceil((a0 + 3.0 * maps.T - base) / maps.T))
            for k in range(kmin, kmax + 1):
                reps.add(round(base + k * maps.T, 12))
    reps = sorted(reps)

    intervals = []
    for pt in attract:
        left = max((r for r in reps if r < pt.x - 1e-10), default=None)
        right = min((r for r in reps if r > pt.x + 1e-10), default=None)
        if left is None or right is None:
            raise NotHyperbolic("attractor %g lacks neighboring repellers" % pt.x)
        pieces = []
        for j in (-1, 0, 1):
            if j == 0:
                seg = (left, right)
            elif j == 1:
                seg = (float(maps.F(left)), float(maps.F(right)))
            else:
                seg = (float(maps.F_inv(left)), float(maps.F_inv(right)))
            lo_c, hi_c = max(seg[0], -a0), min(seg[1], a0)
            if hi_c - lo_c > 1e-12:
                pieces.append((lo_c, hi_c))
        pieces.sort()
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
    multiplier ties the minimum.  Also returns the safe-mass heuristic
    sqrt(gamma / a_max).
    """
    attract = [pt for pt in points if pt.kind == "attracting"]
    if not attract:
        raise NoAttractor("no attracting periodic point with DF^q < 1")
    mults = [pt.multiplier for pt in attract]
    i0 = int(np.argmin(mults))
    mu = mults[i0]
    gamma = -math.log(mu) / (p * maps.T)
    intervals = basin_intervals(maps, points, p, q)
    J = []
    for i, pt in enumerate(attract):
        if pt.multiplier <= mu * (1.0 + 1e-12):
            J.extend(intervals[i])
    J.sort()
    m0 = math.sqrt(gamma / maps.motion.a_max)
    return gamma, i0, intervals, J, m0


def _orbit_multiplier_product(maps, x, q):
    """DF^q(x) for arrays x."""
    _, mult = _g_and_multiplier(maps, x, 0, q)
    return mult


def weight_l(maps, x, attractor_x, p, q, tol=1e-10, kmax=10_000):
    """Infinite product l(x) = prod_k DF^q(a_i) / DF^q(F^{kq}(x)), truncated.

    The orbit y -> F^q(y) - pT contracts geometrically onto a periodic
    point sharing the multiplier of ``attractor_x`` (possibly its F-image),
    so the factors tend to 1.  Truncation stops once the fixed-point
    residual |F^q(y) - pT - y| drops below ``tol`` — proportional to the
    distance from the limit point, which bounds the dropped log-tail by
    O(tol) through the local linearization — or after ``kmax`` factors.
    """
    mu_a = float(_orbit_multiplier_product(maps, np.asarray([attractor_x]), q)[0])
    y = np.asarray(x, dtype=float).copy()
    logl = np.zeros_like(y)
    shift = p * maps.T
    active = np.ones(y.shape, dtype=bool)
    for _ in range(kmax):
        if not np.any(active):
            break
        g, mult = _g_and_multiplier(maps, y[active], p, q)
        logl[active] += math.log(mu_a) - np.log(mult)
        y[np.nonzero(active)[0]] += g
        idx = np.nonzero(active)[0]
        active[idx[np.abs(g) <= tol]] = False
    return np.exp(logl)


def asymptotic_coefficients(maps, f, points, p, q):
    """Coefficients A_i = || sqrt(l_i) f ||^2 over the basin pieces J_i.

    Works on the fundamental interval [a_1, F(a_1)) of the first attractor,
    the natural domain for the weighted-integral asymptotics

        int f^2 / DF^{nq} = sum_i A_i [DF^q(a_i)]^{-n} + o(mu_i0^{-n}).

    ``f`` is a vectorized callable on [a_1, F(a_1)).
    """
    attract = [pt for pt in points if pt.kind == "attracting"]
    if not attract:
        raise NotHyperbolic("no attracting periodic points")
    a1 = attract[0].x
    Fa1 = float(maps.F(a1))

    # periodic points inside [a_1, F(a_1)), including translated images
    pts = find_periodic_points(maps, p, q, lo=a1, hi=Fa1)
    # a_1 itself sits on the closed left end; re-add if the scan clipped it
    if not any(abs(pt.x - a1) <= 1e-9 for pt in pts):
        pts = [PeriodicPoint(a1, attract[0].multiplier, "attracting")] + pts
    att = [pt for pt in pts if pt.kind == "attracting"]
    rep = [pt for pt in pts if pt.kind == "repelling"]
    if not att:
        raise NotHyperbolic("no attractor in [a_1, F(a_1))")

    # neighboring repellers, extending by the F-image of the structure
    rep_ext = sorted({pt.x for pt in rep}
                     | {float(maps.F(pt.x)) for pt in rep}
                     | {float(maps.F_inv(pt.x)) for pt in rep})
    if not rep_ext:
        raise NotHyperbolic("no repelling periodic points bracketing the attractors")

    coeffs = []
    for pt in att:
        left = max((r for r in rep_ext if r < pt.x - 1e-10), default=None)
        right = min((r for r in rep_ext if r > pt.x + 1e-10), default=None)
        if left is None or right is None:
            raise NotHyperbolic("attractor %g lacks neighboring repellers" % pt.x)
        # clip the basin onto [a_1, F(a_1)); the part below a_1 re-enters
        # above under F (wrap-around of J_1)
        pieces = []
        for lo_c, hi_c in ((left, right),
                           (float(maps.F(left)), float(maps.F(right)))):
            lo_c, hi_c = max(lo_c, a1), min(hi_c, Fa1)
            if hi_c - lo_c > 1e-12:
                pieces.append((lo_c, hi_c))
        nodes, weights = np.polynomial.legendre.leggauss(64)
        nsub = 32
        all_x, all_w = [], []
        for lo_c, hi_c in pieces:
            edges = np.linspace(lo_c, hi_c, nsub + 1)
            for e0, e1 in zip(edges[:-1], edges[1:]):
                all_x.append(0.5 * (e0 + e1) + 0.5 * (e1 - e0) * nodes)
                all_w.append(0.5 * (e1 - e0) * weights)
        if not all_x:
            coeffs.append((pt, 0.0))
            continue
        xm = np.concatenate(all_x)
        wm = np.concatenate(all_w)
        lv = weight_l(maps, xm, pt.x, p, q)
        fv = np.asarray(f(xm), dtype=float)
        coeffs.append((pt, max(float(np.sum(wm * lv * fv**2)), 0.0)))
    return coeffs


def weighted_integral(maps, t, j, panels=1024):
    """S_j(t) = integral of (DF^{-j})^2 over (h(t), k(t)) by composite Simpson.

    DF^{-j} is evaluated as 1 / DF^j at the end of the backward orbit, with
    DF^j the product of DF(F^{-1}(x)) = 1 / (F^{-1})'(x) along it: one
    inverse solve per step.  The integral is recomputed at half the panel
    count and the difference reported as an error estimate.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    lo = float(maps.h(t))
    hi = float(maps.k(t))

    def integrand(y):
        y = np.asarray(y, dtype=float)
        prod, cur = np.ones_like(y), y
        for _ in range(int(j)):
            cur, d = maps.F_inv_and_dF(cur)
            prod = prod * d
        return 1.0 / prod**2

    def simpson(n):
        ys = np.linspace(lo, hi, n + 1)
        vals = integrand(ys)
        h = (hi - lo) / n
        return h / 3.0 * (vals[0] + vals[-1] + 4.0 * np.sum(vals[1:-1:2]) + 2.0 * np.sum(vals[2:-1:2]))

    val = simpson(int(panels))
    return val, abs(val - simpson(int(panels) // 2))


def analyze_map(maps, rotation_iterations=100_000, max_q=20, x0=0.0,
                scan_samples=10_000):
    """Run the full analysis pipeline on one lift and return a MapAnalysis.

    Errors from the sub-steps (degenerate map, neutral point, no resonance,
    no attractor) are recorded in ``status`` instead of propagating, so
    parameter scans can log them per point.
    """
    est, hw = rotation_number(maps, rotation_iterations, x0)
    analysis = MapAnalysis(rotation_estimate=est, rotation_half_width=hw,
                           rotation_iterations=int(rotation_iterations))
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
    try:
        points = find_periodic_points(maps, p, q, samples=scan_samples)
    except DegenerateMap:
        analysis.status = "DegenerateMap"
        return analysis
    except NeutralPoint as exc:
        analysis.status = "NeutralPoint at x=%.12g" % exc.x
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
