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

    E_0(t) = int_{h(t)}^{k(t)} G'(y)^2 dy,

and since [h(t), k(t)) is a fundamental domain of F it is computed in the
pulled-back coordinate, where the integrand G'(zeta)^2 / DF^n(zeta) never
compresses (see MasslessProfile.energy_series).

This module evaluates that exact massless profile; the massive solver in
``kleingordon`` builds the f = -(m^2/4) phi profile on its lattice.
"""

import numpy as np

from kgcavity._quadrature import gauss_panels, leggauss

__all__ = [
    "OutsideDomain",
    "IncompatibleData",
    "MasslessProfile",
    "build_initial_profile",
]

_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(24)
#: slack of in_domain on both inequalities
DOMAIN_TOL = 1e-9


class OutsideDomain(ValueError):
    """(xi, eta) violates max(-xi, F^{-1}(xi)) <= eta <= xi."""


class IncompatibleData(ValueError):
    """Cauchy data fails the corner compatibility conditions."""


def in_domain(maps, xi, eta):
    """Vectorized membership test for the transformed domain."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    lower = np.maximum(-xi, maps.F_inv(xi))
    return (eta <= xi + DOMAIN_TOL) & (eta >= lower - DOMAIN_TOL)


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
        if getattr(data, "int_phi1", None) is None:
            raise AttributeError("%r has no int_phi1 (x -> int_0^x phi1)" % (data,))
        self.int_phi1 = data.int_phi1
        # locations where G loses smoothness inside the initial interval
        kinks = {0.0, self.a0, -self.a0}
        for kx in getattr(data, "kinks", ()):
            kinks.add(float(kx))
            kinks.add(-float(kx))
        self._initial_kinks = np.array(sorted(kinks))

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

    # -- energy ----------------------------------------------------------------
    def energy(self, t):
        return float(self.energy_series(np.asarray([t]))[0])

    def energy_series(self, ts):
        """E_0 at each time, integrated over one pulled-back fundamental domain.

        k(t) = F(h(t)), so [h(t), k(t)) is a fundamental domain of F.  With
        y = F^{-n}(h(t)) in [-a(0), a(0)) it is F^n([y, a(0))) followed by
        F^{n+1}([-a(0), y)), and the chain rule gives

            E_0(t) = int_y^{a(0)} G0'^2 / DF^n + int_{-a(0)}^y G0'^2 / DF^{n+1},

        whose integrand does not compress however deep the pullback.  One set
        of 24-node Gauss panels, cut at the initial kinks and at every y,
        serves all samples: row k of P holds every panel's sum of
        w G0'^2 / DF^k, and each E_0 adds two cumulative sums of P.  Only
        the live panels, those with some G0' != 0, are pushed forward, once
        for all samples; a dead panel's sums are exact zeros, and each node
        is pushed on its own, so a live panel's sums do not depend on which
        others are live.  1/DF^k overflows only past gamma t ~ 700.
        """
        ys, ns, _ = self.pullback(self.maps.h(ts))
        # np.unique without its numpy.ma import: sort, drop adjacent repeats
        cuts = np.sort(np.concatenate([self._initial_kinks, ys]))
        cuts = cuts[np.concatenate([[True], cuts[1:] != cuts[:-1]])]
        x, wg = gauss_panels(cuts[:-1], cuts[1:], _GAUSS_NODES, _GAUSS_WEIGHTS)
        wg = wg * self._G0_prime(x.ravel()).reshape(x.shape) ** 2
        live = np.flatnonzero(wg.any(axis=1))
        x, wg = x[live].ravel(), wg[live]
        P = np.zeros((int(ns.max()) + 2, cuts.size - 1))
        P[0, live] = wg.sum(axis=1)
        dfk = np.ones_like(x)
        # zero data has no live panel and pushes nothing
        for k in range(1, P.shape[0] if live.size else 1):
            x, d = self.maps.F_and_dF(x)
            dfk *= d
            P[k, live] = (wg / dfk.reshape(live.size, 24)).sum(axis=1)
        # below[k, j]: panels on [-a(0), cuts[j]); above[k, j]: on [cuts[j], a(0))
        zero = np.zeros((P.shape[0], 1))
        below = np.hstack([zero, np.cumsum(P, axis=1)])
        above = np.hstack([np.cumsum(P[:, ::-1], axis=1)[:, ::-1], zero])
        j = np.searchsorted(cuts, ys)
        return above[ns, j] + below[ns + 1, j]


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
