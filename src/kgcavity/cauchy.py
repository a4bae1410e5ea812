"""Initial data (phi0, phi1) and the corner compatibility conditions.

A solution that is C^2 up to the corners of the space-time domain requires
six endpoint conditions on the Cauchy data:

    phi0(0) = 0                  phi0(a0) = 0
    phi1(0) = 0                  phi1(a0) + a'(0) phi0'(a0) = 0
    phi0''(0) = 0
    (1 + a'(0)^2) phi0''(a0) + a''(0) phi0'(a0) + 2 a'(0) phi1'(a0) = 0

The built-in bump family satisfies all six identically because the data and
two derivatives vanish near both endpoints.
"""

import numpy as np

from kgcavity._quadrature import gauss_panels, leggauss

__all__ = [
    "BumpOutOfRange",
    "MissingAnalysis",
    "CauchyData",
    "CompatibilityReport",
    "make_bump",
    "make_eigenmode",
    "zero_data",
    "check_compatibility",
    "check_hypothesis_J",
    "load_tabulated",
]


class BumpOutOfRange(ValueError):
    """Bump width <= 0, or its support touches or crosses an end of [0, a(0)]."""


class MissingAnalysis(ValueError):
    """check_hypothesis_J needs a MapAnalysis carrying the interval J."""


class CauchyData:
    """Initial field phi0 (C^2) and velocity phi1 (C^1) on [0, a(0)].

    Evaluators are vectorized callables.  Endpoint derivative values are
    stored explicitly; for analytic families they come from closed forms,
    for tabulated data the user supplies them (differencing a table for a
    corner condition is ill-conditioned, so it is not attempted).  The
    massless profile reads ``int_phi1``, the exact antiderivative x -> int_0^x
    phi1, and ``kinks``, the points of (0, a(0)) where G0' may not be smooth.
    """

    def __init__(self, phi0, phi1, dphi0, ddphi0, dphi1, a0, *, int_phi1, kinks,
                 provenance="user"):
        self.phi0 = phi0
        self.phi1 = phi1
        self.dphi0 = dphi0
        self.ddphi0 = ddphi0
        self.dphi1 = dphi1
        self.a0 = float(a0)
        self.int_phi1 = int_phi1
        self.kinks = tuple(kinks)
        self.provenance = provenance

    def __repr__(self):
        return "CauchyData(%s, a0=%g)" % (self.provenance, self.a0)


def zero_data(a0):
    z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return CauchyData(z, z, z, z, z, a0, int_phi1=z, kinks=(), provenance="zero")


def make_bump(a0, center, width, amplitude, direction="standing"):
    """C^2 polynomial bump amplitude * (1 - u^2)^3, u = (x - center)/width.

    phi1 is -phi0' for a right-moving pulse, +phi0' for left-moving, zero
    for standing.  Width > 0, and the support strictly inside (0, a(0)).
    """
    if not width > 0.0:
        raise BumpOutOfRange("width must be positive, got %g" % width)
    if not (0.0 < center - width and center + width < a0):
        raise BumpOutOfRange(
            "support [%g, %g] must lie strictly inside (0, %g)"
            % (center - width, center + width, a0))
    if direction not in ("left", "right", "standing"):
        raise ValueError("direction must be left, right or standing")
    c, w, A = float(center), float(width), float(amplitude)

    def u_of(x):
        return (np.asarray(x, dtype=float) - c) / w

    def phi0(x):
        u = u_of(x)
        inside = np.abs(u) < 1.0
        v = np.where(inside, 1.0 - u**2, 0.0)
        return A * v**3

    def dphi0(x):
        u = u_of(x)
        inside = np.abs(u) < 1.0
        v = np.where(inside, 1.0 - u**2, 0.0)
        return np.where(inside, -6.0 * A / w * u * v**2, 0.0)

    def ddphi0(x):
        u = u_of(x)
        inside = np.abs(u) < 1.0
        v = np.where(inside, 1.0 - u**2, 0.0)
        return np.where(inside, A / w**2 * (-6.0 * v**2 + 24.0 * u**2 * v), 0.0)

    sgn = {"right": -1.0, "left": 1.0, "standing": 0.0}[direction]
    phi1 = (lambda x: sgn * dphi0(x))
    dphi1 = (lambda x: sgn * ddphi0(x))

    return CauchyData(phi0, phi1, dphi0, ddphi0, dphi1, a0,
                      int_phi1=lambda x: sgn * phi0(x),  # phi0(0) = 0
                      kinks=(c - w, c + w),              # phi0''' jumps here
                      provenance="bump(%s, c=%g, w=%g, A=%g)" % (direction, c, w, A))


def make_eigenmode(a0, mode=1, amplitude=1.0):
    """Static-cavity eigenmode data phi0 = A sin(k pi x / a0), phi1 = 0.

    With a constant wall and mass m the exact solution is
    A sin(k pi x / a0) cos(omega t), omega = sqrt((k pi / a0)^2 + m^2).
    """
    kk = mode * np.pi / a0
    A = float(amplitude)
    phi0 = lambda x: A * np.sin(kk * np.asarray(x, dtype=float))
    dphi0 = lambda x: A * kk * np.cos(kk * np.asarray(x, dtype=float))
    ddphi0 = lambda x: -A * kk**2 * np.sin(kk * np.asarray(x, dtype=float))
    z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return CauchyData(phi0, z, dphi0, ddphi0, z, a0, int_phi1=z, kinks=(),
                      provenance="eigenmode(k=%d, A=%g)" % (mode, A))


class CompatibilityReport:
    """Residuals of the six corner conditions with pass/fail flags."""

    LABELS = (
        "phi0(0) = 0",
        "phi0(a0) = 0",
        "phi1(0) = 0",
        "phi1(a0) + a'(0) phi0'(a0) = 0",
        "phi0''(0) = 0",
        "(1+a'(0)^2) phi0''(a0) + a''(0) phi0'(a0) + 2 a'(0) phi1'(a0) = 0",
    )

    def __init__(self, residuals, tolerance):
        self.residuals = list(residuals)
        self.tolerance = float(tolerance)
        self.passed = [abs(r) <= tolerance for r in self.residuals]

    @property
    def all_passed(self):
        return all(self.passed)

    def lines(self):
        out = []
        for lab, r, ok in zip(self.LABELS, self.residuals, self.passed):
            out.append("%-4s |%.3e|  %s" % ("PASS" if ok else "FAIL", r, lab))
        return out

    def to_dict(self):
        return {
            "tolerance": self.tolerance,
            "all_passed": self.all_passed,
            "conditions": [
                {"condition": lab, "residual": r, "passed": ok}
                for lab, r, ok in zip(self.LABELS, self.residuals, self.passed)
            ],
        }


def check_compatibility(data, motion, tolerance=1e-10):
    """Evaluate the six corner conditions; failures are reported, not raised."""
    a0 = motion.a0
    da0 = float(motion.da(0.0))
    dda0 = float(motion.dda(0.0))
    residuals = [
        float(data.phi0(0.0)),
        float(data.phi0(a0)),
        float(data.phi1(0.0)),
        float(data.phi1(a0)) + da0 * float(data.dphi0(a0)),
        float(data.ddphi0(0.0)),
        (1.0 + da0**2) * float(data.ddphi0(a0))
        + dda0 * float(data.dphi0(a0))
        + 2.0 * da0 * float(data.dphi1(a0)),
    ]
    return CompatibilityReport(residuals, tolerance)


def check_hypothesis_J(data, analysis):
    """L^2 norm of phi0'(|x|) + phi1(|x|) sgn(x) over the interval union J.

    A vanishing norm means the growth theorem's hypothesis is unmet and
    exponential growth is not guaranteed for this data.
    """
    J = getattr(analysis, "J", None)
    if not J:
        raise MissingAnalysis("analysis carries no interval union J")
    edges = [np.linspace(lo, hi, 9) for lo, hi in J]    # 8 panels per interval
    x, w = gauss_panels(np.concatenate([e[:-1] for e in edges]),
                        np.concatenate([e[1:] for e in edges]),
                        *leggauss(64))
    g = np.asarray(data.dphi0(np.abs(x)), dtype=float) \
        + np.asarray(data.phi1(np.abs(x)), dtype=float) * np.sign(x)
    total = 0.0
    for panel in np.sum(w * g**2, axis=1).tolist():
        total += panel
    return np.sqrt(max(total, 0.0))


def load_tabulated(path, a0):
    """Read Cauchy data from a two-column text table with derivative block.

    Format (``#`` starts a comment)::

        [phi0]
        x value          # one pair per line, x ascending on [0, a0]
        ...
        [phi1]
        x value
        ...
        [derivatives]
        phi0_prime_0 = <float>     phi0' at x = 0
        phi0_prime_a = <float>     phi0' at x = a0
        phi0_second_0 = <float>
        phi0_second_a = <float>
        phi1_prime_a = <float>

    Interior values are monotone-cubic interpolated; the declared endpoint
    derivatives are used verbatim for the compatibility conditions.
    """
    tables = {"phi0": [], "phi1": []}
    derivs = {}
    section = None
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("["):
                section = line.strip("[]").strip()
                continue
            if section in ("phi0", "phi1"):
                xs, vs = line.split()
                tables[section].append((float(xs), float(vs)))
            elif section == "derivatives":
                key, val = (s.strip() for s in line.split("="))
                derivs[key] = float(val)
            else:
                raise ValueError("data before any [section] header: %r" % line)

    required = ("phi0_prime_0", "phi0_prime_a", "phi0_second_0",
                "phi0_second_a", "phi1_prime_a")
    missing = [k for k in required if k not in derivs]
    if missing:
        raise ValueError("derivative block missing %s" % ", ".join(missing))
    for name in ("phi0", "phi1"):
        if len(tables[name]) < 4:
            raise ValueError("section [%s] needs at least 4 points" % name)

    from scipy.interpolate import PchipInterpolator

    interps = {}
    for name in ("phi0", "phi1"):
        arr = np.asarray(sorted(tables[name]), dtype=float)
        interps[name] = PchipInterpolator(arr[:, 0], arr[:, 1], extrapolate=False)

    p0, p1 = interps["phi0"], interps["phi1"]
    phi0 = lambda x: np.nan_to_num(p0(np.asarray(x, dtype=float)))
    phi1 = lambda x: np.nan_to_num(p1(np.asarray(x, dtype=float)))

    # endpoint-aware derivative evaluators: declared values at the corners,
    # spline derivatives in the interior (used only away from the corners)
    dp0 = p0.derivative()
    ddp0 = p0.derivative(2)
    dp1 = p1.derivative()

    def _corner_aware(interior, at0, at_a):
        def f(x):
            x = np.asarray(x, dtype=float)
            out = np.nan_to_num(interior(x))
            out = np.where(np.isclose(x, 0.0, atol=1e-14), at0, out)
            out = np.where(np.isclose(x, a0, rtol=0, atol=1e-14), at_a, out)
            return out
        return f

    dphi0 = _corner_aware(dp0, derivs["phi0_prime_0"], derivs["phi0_prime_a"])
    ddphi0 = _corner_aware(ddp0, derivs["phi0_second_0"], derivs["phi0_second_a"])
    dphi1 = _corner_aware(dp1, float(dp1(0.0)), derivs["phi1_prime_a"])

    # the PCHIP's own antiderivative, zero at the first node; phi1 reads 0
    # outside the table, so clipping to its range extends it exactly
    ip1 = p1.antiderivative()
    int_phi1 = lambda x: ip1(np.clip(np.asarray(x, dtype=float), p1.x[0], p1.x[-1]))
    # G0' = -(phi0' + phi1 sgn)/2 has a kink at every node of either table
    return CauchyData(phi0, phi1, dphi0, ddphi0, dphi1, a0, int_phi1=int_phi1,
                      kinks=np.union1d(p0.x, p1.x).tolist(), provenance="table:%s" % path)
