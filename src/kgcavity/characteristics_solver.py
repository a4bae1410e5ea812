"""Explicit solution machinery in characteristic coordinates.

With xi = t + x, eta = t - x the field is

    phi(xi, eta) = -int_{|eta|}^{xi} dy int_{eta}^{y} dz f(y,z) + G(eta) - G(xi)

where G is fixed on [-a(0), a(0)] by the Cauchy data,

    G(eta) = -1/2 phi0(|eta|) sgn(eta) - 1/2 int_0^{|eta|} phi1
             - int_0^{|eta|} dy int_{-y}^{y} dz f(y,z),

and extended to all later coordinates by the prolongation

    G(F(eta)) = G(eta) - int_{|eta|}^{F(eta)} dy int_{eta}^{y} dz f(y,z).

For f == 0 everything is exact: G at any coordinate equals its value at the
F-pullback into the initial interval, and the derivative obeys the chain
rule G'(F(eta)) = G'(eta)/F'(eta).  The massless energy is

    E_0(t) = int_{h(t)}^{k(t)} G'(y)^2 dy.

This module evaluates that exact massless profile; the massive solver in
``kleingordon`` builds the f = -(m^2/4) phi profile on its lattice.
"""

import numpy as np

__all__ = [
    "OutsideDomain",
    "IncompatibleData",
    "MasslessProfile",
    "build_initial_profile",
]

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(24)


class OutsideDomain(ValueError):
    """(xi, eta) violates max(-xi, F^{-1}(xi)) <= eta <= xi."""


class IncompatibleData(ValueError):
    """Cauchy data fails the corner compatibility conditions."""


def in_domain(maps, xi, eta, tol=1e-9):
    """Vectorized membership test for the transformed domain."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    lower = np.maximum(-xi, maps.F_inv(xi))
    return (eta <= xi + tol) & (eta >= lower - tol)


def _antiderivative_phi1(data, n=8192):
    """x -> int_0^x phi1, exact when the data family provides it."""
    exact = getattr(data, "int_phi1", None)
    if exact is not None:
        return exact
    from scipy.interpolate import PchipInterpolator

    xs = np.linspace(0.0, data.a0, n + 1)
    vals = np.asarray(data.phi1(xs), dtype=float)
    h = data.a0 / n
    cum = np.concatenate([[0.0], np.cumsum(0.5 * h * (vals[1:] + vals[:-1]))])
    interp = PchipInterpolator(xs, cum)
    return lambda x: interp(np.clip(np.asarray(x, dtype=float), 0.0, data.a0))


class MasslessProfile:
    """Exact d'Alembert profile (f == 0) evaluated by F-pullback.

    G and G' are evaluated anywhere by pulling the argument back into
    [-a(0), a(0)) with F^{-1} and applying the closed forms there; no table
    or interpolation enters, so results are exact up to the root-solve
    tolerance of the maps.
    """

    def __init__(self, data, maps):
        self.data = data
        self.maps = maps
        self.a0 = maps.a0
        self.int_phi1 = _antiderivative_phi1(data)
        # locations where G loses smoothness inside the initial interval
        kinks = {0.0, self.a0, -self.a0}
        for kx in getattr(data, "kinks", ()):
            kinks.add(float(kx))
            kinks.add(-float(kx))
        self._initial_kinks = np.array(sorted(kinks))
        self._image_cache = None

    # -- closed forms on the initial interval -------------------------------
    def _G0(self, eta):
        eta = np.asarray(eta, dtype=float)
        ab = np.abs(eta)
        return -0.5 * np.asarray(self.data.phi0(ab)) * np.sign(eta) \
               - 0.5 * np.asarray(self.int_phi1(ab))

    def _G0_prime(self, eta):
        eta = np.asarray(eta, dtype=float)
        ab = np.abs(eta)
        return -0.5 * (np.asarray(self.data.dphi0(ab))
                       + np.asarray(self.data.phi1(ab)) * np.sign(eta))

    # -- pullback ------------------------------------------------------------
    def pullback(self, eta):
        """(eta0, n, prod) with eta0 = F^{-n}(eta) in [-a(0), a(0)) and
        prod = DF^n(eta0), the accumulated chain-rule factor."""
        eta = np.atleast_1d(np.asarray(eta, dtype=float)).copy()
        if np.any(eta < -self.a0 - 1e-9):
            raise OutsideDomain("coordinate below -a(0)")
        np.clip(eta, -self.a0, None, out=eta)
        n = np.zeros(eta.shape, dtype=int)
        prod = np.ones_like(eta)
        active = eta >= self.a0
        while np.any(active):
            y, d = self.maps.F_inv_and_dF(eta[active])
            eta[active] = y
            prod[active] *= d
            n[active] += 1
            idx = np.nonzero(active)[0]
            active[idx] = eta[idx] >= self.a0
        return eta, n, prod

    def n_of(self, eta):
        """Prolongation depth: eta lies in F^n([-a(0), a(0)))."""
        _, n, _ = self.pullback(eta)
        return n if np.ndim(eta) else int(n[0])

    def K_of(self, t):
        """K(t) = n(t + a_max)."""
        return self.n_of(np.asarray(t, dtype=float) + self.maps.motion.a_max)

    # -- profile evaluation ---------------------------------------------------
    def G(self, eta):
        eta0, _, _ = self.pullback(eta)
        out = self._G0(eta0)
        return out if np.ndim(eta) else float(out[0])

    def G_prime(self, eta):
        eta0, _, prod = self.pullback(eta)
        out = self._G0_prime(eta0) / prod
        return out if np.ndim(eta) else float(out[0])

    def eval_phi(self, xi, eta, check=True):
        """Field value G(eta) - G(xi); raises OutsideDomain off the domain."""
        xi_a = np.atleast_1d(np.asarray(xi, dtype=float))
        eta_a = np.atleast_1d(np.asarray(eta, dtype=float))
        if check and not np.all(in_domain(self.maps, xi_a, eta_a)):
            raise OutsideDomain("point outside the characteristic domain")
        out = self.G(eta_a) - self.G(xi_a)
        return out if np.ndim(xi) or np.ndim(eta) else float(out[0])

    def phi_txy(self, t, x):
        """(phi, phi_t, phi_x) at space-time points, vectorized."""
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        xi, eta = t + x, t - x
        gxi, geta = self.G(xi), self.G(eta)
        dxi, deta = self.G_prime(xi), self.G_prime(eta)
        return geta - gxi, deta - dxi, -(deta + dxi)

    # -- breakpoints and energy -----------------------------------------------
    def breakpoints(self, x_max):
        """Sorted F-images of the initial kink set up to x_max."""
        # idempotent memo: concurrent rebuilds produce identical arrays, so
        # sharing across workers stays deterministic
        cache = self._image_cache
        if cache is not None and cache[0] >= x_max:
            brks = cache[1]
            return brks[brks <= x_max]
        pts = list(self._initial_kinks)
        current = np.array([k for k in self._initial_kinks if k > -self.a0])
        limit = x_max + 1e-12
        while len(current) > 0:
            current = np.asarray(self.maps.F(current))
            current = current[current <= limit]
            pts.extend(current.tolist())
        brks = np.unique(np.asarray(pts))
        self._image_cache = (x_max, brks)
        return brks

    def energy(self, t):
        return float(self.energy_series(np.asarray([t]))[0])

    def energy_series(self, ts):
        """E_0 at each time by breakpoint-split Gauss quadrature of G'^2."""
        ts = np.asarray(ts, dtype=float)
        his = np.asarray(self.maps.k(ts))
        los = np.asarray(self.maps.h(ts))
        brks = self.breakpoints(float(np.max(his)) + 1e-9)

        all_nodes, all_weights, owner = [], [], []
        for i, (lo, hi) in enumerate(zip(los, his)):
            inner = brks[(brks > lo + 1e-13) & (brks < hi - 1e-13)]
            edges = np.concatenate([[lo], inner, [hi]])
            e0, e1 = edges[:-1], edges[1:]
            nodes = 0.5 * (e0 + e1)[:, None] + 0.5 * (e1 - e0)[:, None] * _GAUSS_NODES
            weights = 0.5 * (e1 - e0)[:, None] * _GAUSS_WEIGHTS
            all_nodes.append(nodes.ravel())
            all_weights.append(weights.ravel())
            owner.append(np.full(nodes.size, i))
        nodes = np.concatenate(all_nodes)
        weights = np.concatenate(all_weights)
        owner = np.concatenate(owner)
        vals = self.G_prime(nodes) ** 2
        out = np.zeros(ts.shape)
        np.add.at(out, owner, weights * vals)
        return out


def build_initial_profile(data, maps):
    """Exact massless profile of the Cauchy data.

    Verifies the corner compatibility conditions first and raises
    :class:`IncompatibleData` on failure (with the report attached).
    """
    from . import cauchy as _cauchy

    report = _cauchy.check_compatibility(data, maps.motion, tolerance=1e-8)
    if not report.all_passed:
        err = IncompatibleData("; ".join(
            line for line, ok in zip(report.lines(), report.passed) if not ok))
        err.report = report
        raise err
    return MasslessProfile(data, maps)
