"""Moving-wall trajectories and the characteristic maps h, k, F.

The cavity occupies 0 <= x <= a(t) where a is a strictly positive periodic
C^2 function with sub-luminal wall speed |a'(t)| < 1.  The maps

    h = Id - a,   k = Id + a,   F = k o h^{-1}

encode one light-ray reflection off both walls: a ray leaving x = 0 at
characteristic coordinate eta returns to x = 0 at F(eta).  F is a degree-one
lift of a circle diffeomorphism, F(x + T) = F(x) + T.

A wall profile gives ``a``, ``da`` and ``dda`` on arrays, elementwise (a flat
vector has the bits of 0-d calls, and so has DF), ``a_scalar`` on Python
floats (``a``'s operations in ``a``'s order, so the same bits), ``kind`` and
``describe()``.
"""

import bisect
import functools
import math

import numpy as np

__all__ = [
    "RejectedMotion",
    "NoConvergence",
    "BoundaryMotion",
    "CharacteristicMaps",
    "constant_profile",
    "sinusoidal_profile",
    "fourier_profile",
    "validate_motion",
]


class RejectedMotion(ValueError):
    """Wall trajectory violates positivity, periodicity or |a'| < 1."""


class NoConvergence(RuntimeError):
    """Safeguarded root finder for h^{-1} / k^{-1} exceeded its iteration cap.

    Unreachable for validated motions; signals an invariant breach.
    """


class constant_profile:
    """a(t) = alpha: the static wall."""

    kind = "constant"

    def __init__(self, alpha):
        self.alpha = float(alpha)

    def a(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.alpha)

    def da(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    dda = da

    def a_scalar(self, t):
        return self.alpha

    def describe(self):
        return {"profile": "constant", "alpha": self.alpha}


class sinusoidal_profile:
    """a(t) = alpha + beta * sin(2 pi t / period)."""

    kind = "sinusoidal"

    def __init__(self, alpha, beta, period):
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.omega = 2.0 * math.pi / float(period)

    def a(self, t):
        return self.alpha + self.beta * np.sin(self.omega * np.asarray(t, dtype=float))

    def da(self, t):
        return self.beta * self.omega * np.cos(self.omega * np.asarray(t, dtype=float))

    def dda(self, t):
        return -self.beta * self.omega**2 * np.sin(self.omega * np.asarray(t, dtype=float))

    def a_scalar(self, t):
        return self.alpha + self.beta * math.sin(self.omega * t)

    def describe(self):
        return {
            "profile": "sinusoidal",
            "alpha": self.alpha,
            "beta": self.beta,
            "period": 2.0 * math.pi / self.omega,
        }


class fourier_profile:
    """a(t) = mean + sum_k cos_k cos(2 pi k t / T) + sin_k sin(2 pi k t / T)."""

    kind = "fourier"

    def __init__(self, mean, cos_coeffs, sin_coeffs, period):
        self.mean = float(mean)
        ncos, nsin = len(cos_coeffs), len(sin_coeffs)
        order = max(ncos, nsin, 1)
        self.cos_coeffs = np.zeros(order)
        self.sin_coeffs = np.zeros(order)
        self.cos_coeffs[:ncos] = cos_coeffs
        self.sin_coeffs[:nsin] = sin_coeffs
        self.order = order
        self.omega = 2.0 * math.pi / float(period)
        kw = (self.omega * np.arange(1, order + 1)).tolist()
        # (k omega, cos, sin) coefficients of a, a' and a'' as Python floats
        self._terms = list(zip(kw, self.cos_coeffs.tolist(), self.sin_coeffs.tolist()))
        self._dterms = [(w, w * s, -w * c) for w, c, s in self._terms]
        self._ddterms = [(w, -w * w * c, -w * w * s) for w, c, s in self._terms]

    @staticmethod
    def _series(t, start, terms):
        # one harmonic at a time, in a_scalar's order: elementwise
        t = np.asarray(t, dtype=float)
        s = np.full_like(t, start)
        for kw, c, sn in terms:
            ph = kw * t
            s += c * np.cos(ph) + sn * np.sin(ph)
        return s

    def a(self, t):
        return self._series(t, self.mean, self._terms)

    def da(self, t):
        return self._series(t, 0.0, self._dterms)

    def dda(self, t):
        return self._series(t, 0.0, self._ddterms)

    def a_scalar(self, t):
        s = self.mean
        for kw, c, sn in self._terms:
            ph = kw * t
            s += c * math.cos(ph) + sn * math.sin(ph)
        return s

    def describe(self):
        return {
            "profile": "fourier",
            "mean": self.mean,
            "cos": list(self.cos_coeffs),
            "sin": list(self.sin_coeffs),
            "period": 2.0 * math.pi / self.omega,
        }


class BoundaryMotion:
    """Validated periodic wall trajectory a(t) with cached bounds.

    Build through :func:`validate_motion`; instances are immutable after
    construction and safe for concurrent read-only use.

    Attributes
    ----------
    period : float
        Period T of the wall motion.
    a_min, a_max : float
        inf/sup of a over one period.
    da_max : float
        sup |a'(t)| over one period (strictly below 1).
    """

    def __init__(self, profile, period, a_min, a_max, da_max):
        self.profile = profile
        self.period = float(period)
        self.a_min = float(a_min)
        self.a_max = float(a_max)
        self.da_max = float(da_max)
        self.a0 = float(profile.a_scalar(0.0))

    def a(self, t):
        return self.profile.a(t)

    def da(self, t):
        return self.profile.da(t)

    def dda(self, t):
        return self.profile.dda(t)

    def describe(self):
        d = self.profile.describe()
        d["period"] = self.period
        return d

    def __repr__(self):
        return "BoundaryMotion(%s, T=%g, a in [%g, %g], sup|a'|=%g)" % (
            self.profile.kind, self.period, self.a_min, self.a_max, self.da_max)


def _refine_extremum(f, t_lo, t_hi, mode):
    """Refine max/min of f on [t_lo, t_hi] by golden-section search."""
    sign = 1.0 if mode == "max" else -1.0
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = t_lo, t_hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = sign * float(f(c)), sign * float(f(d))
    for _ in range(80):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = sign * float(f(c))
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = sign * float(f(d))
        if b - a < 1e-14 * (1.0 + abs(a)):
            break
    return sign * max(fc, fd)


def validate_motion(profile, period):
    """Check a wall trajectory and return a :class:`BoundaryMotion`.

    Samples >= 10^4 points per period (10^4 * (order + 1) for Fourier
    profiles) and refines the extrema of a and |a'| around the sampled
    argmax/argmin.

    Raises
    ------
    RejectedMotion
        If period <= 0, inf a <= 0 or sup |a'| >= 1.
    """
    period = float(period)
    if not period > 0.0:
        raise RejectedMotion("period must be positive, got %g" % period)

    order = getattr(profile, "order", 0)
    n = 10_000 * (order + 1)
    ts = np.linspace(0.0, period, n, endpoint=False)
    av = np.asarray(profile.a(ts), dtype=float)
    dav = np.abs(np.asarray(profile.da(ts), dtype=float))
    if not (np.all(np.isfinite(av)) and np.all(np.isfinite(dav))):
        raise RejectedMotion("profile not evaluable on [0, period]")

    dt = period / n

    def refine(values, f, mode):
        idx = int(np.argmax(values)) if mode == "max" else int(np.argmin(values))
        t0 = ts[idx]
        return _refine_extremum(f, t0 - dt, t0 + dt, mode)

    a_min = refine(av, profile.a, "min")
    a_max = refine(av, profile.a, "max")
    da_max = refine(dav, lambda t: np.abs(profile.da(t)), "max")

    if a_min <= 0.0:
        raise RejectedMotion("inf a = %g <= 0" % a_min)
    if da_max >= 1.0:
        raise RejectedMotion("sup |a'| = %g >= 1" % da_max)

    # periodicity sanity check (closed-form profiles satisfy it exactly)
    per = np.asarray(profile.a(ts + period), dtype=float)
    if not np.allclose(per, av, rtol=1e-12, atol=1e-12 * max(1.0, a_max)):
        raise RejectedMotion("a(t + T) != a(t) on the sample grid")

    return BoundaryMotion(profile, period, a_min, a_max, da_max)


class CharacteristicMaps:
    """Evaluators for h, k, their inverses, and the circle-map lift F.

    All evaluations are pure functions of (motion, x).  Every inverse is
    seeded by a quintic Hermite of t(y) on SEED_NODES nodes per period,
    which already meets the residual test; arrays (:meth:`_invert`) and
    Python floats (:meth:`_invert_scalar`, the step of
    :meth:`orbit_translation`) evaluate it with the same operations.  A
    point it misses goes through the one bracketed Newton, :meth:`_newton`,
    from either path, so scalar and array inverses agree bit for bit.  No
    seed table is mutated once built, so instances are safe to share
    across workers.
    """

    #: residual tolerance for the inverse solves, scaled by (1 + |y|)
    inv_tol = 1e-12
    #: nodes per period of the quintic Hermite seed of the inverses
    SEED_NODES = 1025

    def __init__(self, motion):
        self.motion = motion
        self.a0 = motion.a0
        self.T = motion.period
        # F'(x) = (1 + a'(t))/(1 - a'(t)) is bounded by the velocity transfer
        s = motion.da_max
        self.dF_min = (1.0 - s) / (1.0 + s)
        self.dF_max = (1.0 + s) / (1.0 - s)
        # bound once because every scalar orbit step calls it
        self._a_scalar = motion.profile.a_scalar
        # (lo_off, hi_off) per sign, indexed by sign > 0: |a'| < 1 makes
        # t + sign*a(t) monotone, so its root for y is in [y - lo_off, y - hi_off]
        self._offsets = ((-motion.a_min, -motion.a_max), (motion.a_max, motion.a_min))
        # quintic Hermite seeds of the inverses, indexed by sign > 0
        self._hermite = (self._hermite_table(-1.0), self._hermite_table(1.0))

    @functools.cached_property
    def _scalar_seed(self):
        """Per sign, the Hermite table's cell starts as a list for ``bisect``
        and its rows as memoryviews, which index to floats; made on the
        first scalar inverse, since arrays never read them."""
        return tuple((nodes.tolist(), *map(memoryview, coef))
                     for nodes, coef in self._hermite)

    def _hermite_table(self, sign):
        """(y_j, Horner coefficients) of the quintic Hermite of t(y), the
        inverse of y = t + sign*a(t), on the nodes t_j = j T / (SEED_NODES - 1).

        t, t' = 1/(1 + s a') and t'' = -s a''/(1 + s a')^3 at both ends of
        every cell [y_j, y_{j+1}] fix its quintic.  The coefficients are six
        arrays of SEED_NODES - 1 cells, the k-th that of (y - y_j)^(5 - k).
        """
        mot = self.motion
        t = np.linspace(0.0, self.T, self.SEED_NODES)
        d = 1.0 + sign * np.asarray(mot.da(t), dtype=float)
        y = t + sign * np.asarray(mot.a(t), dtype=float)
        d1 = 1.0 / d
        d2 = -sign * np.asarray(mot.dda(t), dtype=float) / d**3
        H = np.diff(y)
        c0, c1, c2 = t[:-1], d1[:-1], 0.5 * d2[:-1]
        # what the quadratic part leaves of t, t' and t'' at y_{j+1}, scaled
        A = (t[1:] - (c0 + H * (c1 + H * c2))) / H**3
        B = (d1[1:] - (c1 + 2.0 * H * c2)) / H**2
        C = (d2[1:] - 2.0 * c2) / H
        c3 = 10.0 * A - 4.0 * B + 0.5 * C
        c4 = (-15.0 * A + 7.0 * B - C) / H
        c5 = (6.0 * A - 3.0 * B + 0.5 * C) / H**2
        return y, tuple(np.stack([c5, c4, c3, c2, c1, c0]))

    # -- forward maps -----------------------------------------------------
    def h(self, t):
        t = np.asarray(t, dtype=float)
        return t - self.motion.a(t)

    def k(self, t):
        t = np.asarray(t, dtype=float)
        return t + self.motion.a(t)

    # -- inverses ----------------------------------------------------------
    def _invert(self, y, sign):
        """(t, a(t)) with t + sign*a(t) = y, residual <= inv_tol (1 + |y|).

        sign = -1 inverts h, sign = +1 inverts k.  A 0-d y takes
        :meth:`_invert_scalar`, which evaluates the same seed on floats.  An
        array is seeded by the quintic Hermite table of its sign (periodic
        reduction, then the cell of each point, clipped into the table on
        both sides, and Horner's rule in place).  The seed's a(t) gives the
        residual test, which the seed meets to about 1e-14 relative; points
        it misses, and non-finite ones, go through :meth:`_newton` together,
        each to its own stop.
        """
        if np.ndim(y) == 0:
            return self._invert_scalar(float(y), sign)
        y = np.asarray(y, dtype=float)
        nodes, coef = self._hermite[sign > 0]
        # periodic reduction: h(t + T) = h(t) + T, same for k
        shift = y - nodes[0]
        shift /= self.T
        np.floor(shift, out=shift)
        shift *= self.T
        # an infinite y gives inf - inf = NaN here, which then ends in
        # NoConvergence; every later operation on it is quiet
        with np.errstate(invalid="ignore"):
            u = y - shift
        # the cell of u, clipped on both sides: rounding can put u just
        # outside [y_0, y_0 + T), and a NaN sorts past the end
        j = nodes.searchsorted(u, side="right")
        j -= 1
        np.maximum(j, 0, out=j)
        np.minimum(j, len(nodes) - 2, out=j)
        z = nodes.take(j)
        np.subtract(u, z, out=z)
        t = coef[0].take(j)
        for row in coef[1:]:
            t *= z
            t += row.take(j, out=u)
        t += shift
        a = np.asarray(self.motion.a(t), dtype=float)
        # residual |t + sign*a - y| against inv_tol (1 + |y|), in the buffers
        f = np.multiply(a, sign, out=shift)
        f += t
        f -= y
        np.abs(f, out=f)
        tol = np.abs(y, out=z)
        tol += 1.0
        tol *= self.inv_tol
        ok = f <= tol
        if not ok.all():
            miss = ~ok
            t[miss], a[miss] = self._newton(y[miss], sign, t[miss])
        return t, a

    def _newton(self, y, sign, t):
        """(t, a(t)) for the 1-d y by Newton from t, with bisection fallback.

        Monotone because |a'| < 1, so the bracket [y - a_max, y - a_min] (k)
        or [y + a_min, y + a_max] (h), widened by 1e-9, always contains the
        root.  Each point stops once its residual meets inv_tol (1 + |y|)
        and drops out of the arrays, so its result does not depend on the
        other points: a one-point array is :meth:`_invert_scalar`'s
        fallback.  Raises :class:`NoConvergence` after 60 steps, e.g. for a
        non-finite y.
        """
        mot = self.motion
        lo_off, hi_off = self._offsets[sign > 0]
        lo = y - lo_off - 1e-9
        hi = y - hi_off + 1e-9
        tol = self.inv_tol * (1.0 + np.abs(y))
        t_out, a_out = t.copy(), np.asarray(mot.a(t), dtype=float)
        live = np.arange(y.size)
        f = t + sign * a_out - y
        for _ in range(60):
            # a NaN residual never meets the tolerance
            on = ~(np.abs(f) <= tol)
            if not on.any():
                return t_out, a_out
            live, y, t, f, lo, hi, tol = (v[on] for v in (live, y, t, f, lo, hi, tol))
            t_new = t - f / (1.0 + sign * np.asarray(mot.da(t)))
            # fall back to bisection when Newton leaves the bracket
            t = np.where((t_new < lo) | (t_new > hi), 0.5 * (lo + hi), t_new)
            # the bracket residual is the next iteration's Newton residual
            a = np.asarray(mot.a(t), dtype=float)
            t_out[live], a_out[live] = t, a
            f = t + sign * a - y
            pos = f > 0.0
            hi = np.where(pos, t, hi)
            lo = np.where(pos, lo, t)
        raise NoConvergence("inverse solve did not reach tolerance")

    def _invert_scalar(self, y, sign):
        """(t, a(t)) with t + sign*a(t) = y for one Python float y.

        The seed is :meth:`_invert`'s, with its operations in its order, so
        it has the same bits; its a(t) gives the residual test.  A miss
        takes :meth:`_newton` on a one-point array, so it returns the array
        path's bits; its numpy calls cost some 50 times a hit, and no
        benchmark motion misses.  A NaN or infinite y raises
        :class:`NoConvergence`, as it does for arrays.
        """
        nodes, c5, c4, c3, c2, c1, c0 = self._scalar_seed[sign > 0]
        T = self.T
        try:
            shift = math.floor((y - nodes[0]) / T) * T
        except (ValueError, OverflowError):
            raise NoConvergence("inverse solve of the non-finite %r" % y) from None
        u = y - shift
        j = bisect.bisect_right(nodes, u) - 1
        if j < 0:
            j = 0
        elif j > len(nodes) - 2:
            j = len(nodes) - 2
        z = u - nodes[j]
        t = ((((c5[j] * z + c4[j]) * z + c3[j]) * z + c2[j]) * z + c1[j]) * z + c0[j]
        t += shift
        a = self._a_scalar(t)
        if abs(t + sign * a - y) <= self.inv_tol * (1.0 + abs(y)):
            return t, a
        t, a = self._newton(np.array([y]), sign, np.array([t]))
        return float(t[0]), float(a[0])

    def h_inv(self, y):
        """t with t - a(t) = y, residual <= 1e-12 * (1 + |y|)."""
        return self._invert(y, -1.0)[0]

    def k_inv(self, y):
        """t with t + a(t) = y, residual <= 1e-12 * (1 + |y|)."""
        return self._invert(y, +1.0)[0]

    # -- lift F and its derivative ----------------------------------------
    # each takes a(t) from the inverse solve's residual test
    def F(self, x):
        """F(x) = x + 2 a(h^{-1}(x))."""
        # a float (np.float64 included) skips np.ndim, 100x the type test
        if isinstance(x, float) or np.ndim(x) == 0:
            x = float(x)
            return x + 2.0 * self._invert_scalar(x, -1.0)[1]
        return x + 2.0 * self._invert(x, -1.0)[1]

    def F_inv(self, x):
        """F^{-1}(x) = x - 2 a(k^{-1}(x))."""
        if isinstance(x, float) or np.ndim(x) == 0:
            x = float(x)
            return x - 2.0 * self._invert_scalar(x, +1.0)[1]
        return x - 2.0 * self._invert(x, +1.0)[1]

    def F_and_dF(self, x):
        """(F(x), DF(x)) sharing one inverse solve, where DF(x) = (1 + a'(t))
        / (1 - a'(t)) > 0 with t = h^{-1}(x)."""
        t, a = self._invert(x, -1.0)
        da = np.asarray(self.motion.da(t))
        return x + 2.0 * a, (1.0 + da) / (1.0 - da)

    def F_inv_and_dF(self, x):
        """(F^{-1}(x), DF evaluated at F^{-1}(x)), one inverse solve.

        Uses h(k^{-1}(x)) = F^{-1}(x), so the multiplier at the pulled-back
        point costs nothing extra.
        """
        t, a = self._invert(x, +1.0)
        da = np.asarray(self.motion.da(t))
        return x - 2.0 * a, (1.0 + da) / (1.0 - da)

    # -- scalar orbit ------------------------------------------------------
    def orbit_translation(self, x0, n):
        """[F^k(x0) - x0 for k = 1..n] via n scalar lift steps.

        Each step is the scalar :meth:`F`: the reflection time t = h^{-1}(x)
        from :meth:`_invert_scalar`, whose Hermite seed meets the residual
        test, and the step 2 a(t) from that test's a(t), so a step evaluates
        a once.  Each translation is taken from the running point x_k, so
        from x0 = 0 they are the orbit points F^k(0) bit for bit.
        """
        invert = self._invert_scalar
        x0 = x = float(x0)
        out = []
        append = out.append
        for _ in range(int(n)):
            x = x + 2.0 * invert(x, -1.0)[1]
            append(x - x0)
        return out


def make_motion(spec_dict):
    """Build a validated motion from a plain description dict.

    Expected keys: ``profile`` in {constant, sinusoidal, fourier} plus the
    profile parameters and ``period``.
    """
    kind = spec_dict["profile"]
    period = float(spec_dict["period"])
    if kind == "constant":
        prof = constant_profile(spec_dict["alpha"])
    elif kind == "sinusoidal":
        prof = sinusoidal_profile(spec_dict["alpha"], spec_dict["beta"], period)
    elif kind == "fourier":
        prof = fourier_profile(
            spec_dict["mean"],
            spec_dict.get("cos", []),
            spec_dict.get("sin", []),
            period,
        )
    else:
        raise RejectedMotion("unknown profile kind %r" % kind)
    return validate_motion(prof, period)
