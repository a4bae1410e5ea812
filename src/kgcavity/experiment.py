"""Experiment orchestration: config files, energy-growth fits, scans, reports.

Config grammar: flat ``key = value`` lines with dotted section names and
``#`` comments, e.g.::

    boundary.profile = sinusoidal
    boundary.alpha = 0.5
    boundary.beta = 0.01
    boundary.period = 1.0
    mass.values = 0.0, 0.25
    data.family = bump
    data.center = 0.25
    data.width = 0.1
    data.amplitude = 1.0
    data.direction = right
    grid.resolution = 512
    grid.horizon_periods = 24
    analysis.rotation_iterations = 200000
    analysis.max_q = 20
    fit.samples_per_window = 32
    fit.burn_in_windows = 2
    output.dir = out
    seed = 1234

Keys (defaults in ``_DEFAULTS``): ``boundary.{profile, alpha, beta, period,
mean, cos, sin}``, ``mass.values``, ``data.{family, center, width, amplitude,
direction, mode, path}``, ``grid.{resolution, horizon_periods}``,
``analysis.{rotation_iterations, max_q}``, ``fit.{samples_per_window,
burn_in_windows}``, ``picard.{tol, n_max}``, ``oracle.{enabled, n_y, horizon}``,
``output.dir``, ``scan.{parameter, values, simulate, sim_periods}``, ``seed``.
Energies are averaged over windows of p T for a p:q resonance, else of one
period T.

CSV schemas (headers mandatory, '.' decimal, no locale):
  energy series: ``t,E,E_mass_share,E_window_avg``
  scan:          ``param,rho,rho_err,p,q,gamma,gamma_fit,status``
"""

import json
import math
import os

import numpy as np

from . import boundary, cauchy, circle_dynamics, kleingordon, oracle_fdm
from .characteristics_solver import build_initial_profile

__all__ = [
    "ConfigError",
    "TooFewWindows",
    "NonpositiveEnergy",
    "ExperimentConfig",
    "fit_exponent",
    "run_experiment",
    "scan",
    "run_verify",
]


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


class TooFewWindows(ValueError):
    """Exponent fitting needs at least 5 complete windows."""


class NonpositiveEnergy(ValueError):
    """A window-averaged energy was <= 0; its logarithm is undefined."""


_DEFAULTS = {
    "boundary.profile": "sinusoidal",
    "boundary.alpha": 1.0,
    "boundary.beta": 0.1,
    "boundary.period": 1.0,
    "boundary.mean": 1.0,
    "boundary.cos": "",
    "boundary.sin": "",
    "mass.values": "0.0",
    "data.family": "bump",
    "data.center": 0.25,
    "data.width": 0.1,
    "data.amplitude": 1.0,
    "data.direction": "right",
    "data.mode": 1,
    "data.path": "",
    "grid.resolution": 256,
    "grid.horizon_periods": 8.0,
    "analysis.rotation_iterations": 100_000,
    "analysis.max_q": 20,
    "fit.samples_per_window": 32,
    "fit.burn_in_windows": 2,
    "picard.tol": 1e-9,
    "picard.n_max": 40,
    "oracle.enabled": False,
    "oracle.n_y": 256,
    "oracle.horizon": 3.0,
    "output.dir": "out",
    "scan.parameter": "boundary.beta",
    "scan.values": "",
    "scan.simulate": False,
    "scan.sim_periods": 8.0,
    "seed": 1234,
}

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


class ExperimentConfig:
    """Typed view over the flat key-value config with validation."""

    def __init__(self, values):
        self.values = dict(_DEFAULTS)
        for k, v in values.items():
            if k not in _DEFAULTS:
                raise ConfigError("unknown config key %r" % k)
            self.values[k] = v

    @classmethod
    def from_file(cls, path):
        vals = {}
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError("%s:%d: expected 'key = value'" % (path, lineno))
                key, val = (s.strip() for s in line.split("=", 1))
                vals[key] = val
        return cls(vals)

    # typed accessors ------------------------------------------------------
    def str_(self, key):
        return str(self.values[key])

    def float_(self, key):
        try:
            value = float(self.values[key])
        except (TypeError, ValueError):
            value = math.nan
        if not math.isfinite(value):
            raise ConfigError("key %s: expected a finite number, got %r" % (key, self.values[key]))
        return value

    def int_(self, key):
        try:
            return int(float(self.values[key]))
        except (TypeError, ValueError, OverflowError):
            raise ConfigError("key %s: expected an integer, got %r" % (key, self.values[key]))

    def bool_(self, key):
        v = self.values[key]
        if isinstance(v, bool):
            return v
        try:
            return _BOOL[str(v).strip().lower()]
        except KeyError:
            raise ConfigError("key %s: expected a boolean, got %r" % (key, v))

    def list_(self, key):
        v = str(self.values[key]).strip()
        if not v:
            return []
        try:
            values = [float(s) for s in v.replace(";", ",").split(",") if s.strip()]
        except ValueError:
            values = [math.nan]
        if not all(map(math.isfinite, values)):
            raise ConfigError("key %s: expected a list of finite numbers, got %r" % (key, v))
        return values

    # assembled objects ----------------------------------------------------
    def motion_dict(self, override=None):
        d = {
            "profile": self.str_("boundary.profile"),
            "period": self.float_("boundary.period"),
            "alpha": self.float_("boundary.alpha"),
            "beta": self.float_("boundary.beta"),
            "mean": self.float_("boundary.mean"),
            "cos": self.list_("boundary.cos"),
            "sin": self.list_("boundary.sin"),
        }
        if override:
            d.update(override)
        return d

    def make_motion(self, override=None):
        return boundary.make_motion(self.motion_dict(override))

    def make_data(self, a0):
        fam = self.str_("data.family")
        if fam == "bump":
            return cauchy.make_bump(a0, self.float_("data.center"),
                                    self.float_("data.width"),
                                    self.float_("data.amplitude"),
                                    self.str_("data.direction"))
        if fam == "eigenmode":
            return cauchy.make_eigenmode(a0, self.int_("data.mode"),
                                         self.float_("data.amplitude"))
        if fam == "zero":
            return cauchy.zero_data(a0)
        if fam == "table":
            return cauchy.load_tabulated(self.str_("data.path"), a0)
        raise ConfigError("unknown data.family %r" % fam)

    def validate(self, need_fit=True):
        if self.float_("picard.tol") <= 0:
            raise ConfigError("picard.tol must be positive")
        for key in ("grid.resolution", "fit.samples_per_window", "picard.n_max",
                    "analysis.max_q", "analysis.rotation_iterations"):
            if self.int_(key) < 1:
                raise ConfigError("%s must be >= 1" % key)
        if self.int_("oracle.n_y") < 64:
            raise ConfigError("oracle.n_y must be >= 64")
        if need_fit and self.float_("grid.horizon_periods") < 2:
            raise ConfigError("grid.horizon_periods must be >= 2 when fitting")
        out = self.str_("output.dir")
        os.makedirs(out, exist_ok=True)
        if not os.access(out, os.W_OK):
            raise ConfigError("output.dir %r not writable" % out)
        return self


def _fmt(x):
    """Locale-free shortest-roundtrip float formatting for CSV/JSON."""
    if x is None:
        return ""
    return repr(float(x))


def _window_means(times, window, *series):
    """Window index of every sample, and each series averaged per window.

    Windows of length ``window`` start at ``times[0]``; the last one may be
    incomplete.
    """
    idx = np.floor((times - times[0]) / window + 1e-9).astype(int)
    sel = [idx == k for k in range(int(idx.max()) + 1)]
    return idx, [np.array([np.mean(s[w]) for w in sel]) for s in series]


def _lstsq_slope(t, y):
    """Least-squares slope of y against t, with mean(t) and sum((t - mean t)^2)."""
    tbar = np.mean(t)
    sxx = float(np.sum((t - tbar) ** 2))
    return float(np.sum((t - tbar) * (y - np.mean(y))) / sxx), tbar, sxx


def fit_exponent(times, energies, window, burn_in_windows=0):
    """Least-squares growth rate of log window-averaged energy.

    The series is averaged over consecutive windows of length ``window``
    (period averaging removes the within-period oscillation of E), then a
    line is fitted to log(average) against the window midpoint times.

    Returns (gamma_fit, half_width, info) where half_width is the standard
    error of the slope and info carries the window times/averages/residuals.
    """
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if times.size != energies.size:
        raise ValueError("times and energies must have equal length")
    idx, (tmid, avg) = _window_means(times, window, times, energies)
    nwin = len(avg)
    # drop a trailing incomplete window
    counts = np.bincount(idx, minlength=nwin)
    if nwin >= 2 and counts[-1] < 0.5 * counts[0]:
        nwin -= 1
    if nwin - burn_in_windows < 5:
        raise TooFewWindows("need >= 5 windows after burn-in, have %d" % (nwin - burn_in_windows))
    tmid, avg = tmid[:nwin], avg[:nwin]
    if np.any(avg <= 0.0):
        raise NonpositiveEnergy("window average <= 0 at window %d"
                                % int(np.argmax(avg <= 0.0)))
    tw = tmid[burn_in_windows:]
    lw = np.log(avg[burn_in_windows:])
    slope, tbar, sxx = _lstsq_slope(tw, lw)
    icept = float(np.mean(lw) - slope * tbar)
    resid = lw - (icept + slope * tw)
    sigma2 = float(np.sum(resid**2)) / max(len(tw) - 2, 1)
    half_width = math.sqrt(sigma2 / sxx)
    info = {
        "window": window,
        "window_times": tmid,
        "window_averages": avg,
        "fit_windows": len(tw),
        "intercept": icept,
        "residuals": resid,
    }
    return slope, half_width, info


def _sandwich(tmid, avg, gamma, burn_in=0):
    """Residuals r_k = log(avg_k) - gamma t_k and their trend slope.

    min/max of r are the measured stand-ins for ln A, ln B of the two-sided
    exponential envelope; the trend slope should vanish when gamma is right.
    """
    t = np.asarray(tmid, dtype=float)[burn_in:]
    r = np.log(np.asarray(avg, dtype=float)[burn_in:]) - gamma * t
    return {
        "min_residual": float(np.min(r)),
        "max_residual": float(np.max(r)),
        "trend_slope": _lstsq_slope(t, r)[0],
    }


def _energy_csv(path, times, E, share, window):
    idx, (avg,) = _window_means(times, window, E)
    with open(path, "w", newline="") as fh:
        fh.write("t,E,E_mass_share,E_window_avg\n")
        for t, e, s, k in zip(times, E, share, idx):
            fh.write("%s,%s,%s,%s\n" % (_fmt(t), _fmt(e), _fmt(s), _fmt(avg[k])))


def _massless_energies(data, maps, window, spw, nwin):
    """Exact E_0 at ``spw`` samples per window over ``nwin`` windows."""
    times = window / spw * np.arange(nwin * spw)
    return times, build_initial_profile(data, maps).energy_series(times)


def analyze_config_map(cfg, override=None):
    """Validated motion + maps + MapAnalysis for one config (scan point)."""
    motion = cfg.make_motion(override)
    maps = boundary.CharacteristicMaps(motion)
    analysis = circle_dynamics.analyze_map(
        maps,
        rotation_iterations=cfg.int_("analysis.rotation_iterations"),
        max_q=cfg.int_("analysis.max_q"),
    )
    return motion, maps, analysis


def run_experiment(cfg):
    """Full pipeline: map analysis, data checks, per-mass runs, fits, report.

    Per-mass errors are caught and recorded; partial results persist.
    """
    cfg.validate()
    outdir = cfg.str_("output.dir")
    report = {"config": {k: str(v) for k, v in sorted(cfg.values.items())},
              "errors": []}

    motion, maps, analysis = analyze_config_map(cfg)
    report["motion"] = {
        **{k: (list(v) if isinstance(v, (list, tuple, np.ndarray)) else v)
           for k, v in motion.describe().items()},
        "a_min": motion.a_min, "a_max": motion.a_max, "da_max": motion.da_max,
    }
    report["map_analysis"] = analysis.to_dict()

    data = cfg.make_data(maps.a0)
    comp = cauchy.check_compatibility(data, motion)
    report["compatibility"] = comp.to_dict()

    if analysis.J:
        normJ = float(cauchy.check_hypothesis_J(data, analysis))
        report["hypothesis_J_norm"] = normJ
        report["hypothesis_J_warning"] = bool(normJ <= 1e-12)
    else:
        report["hypothesis_J_norm"] = None

    window = motion.period
    if analysis.resonance is not None:
        window *= analysis.resonance[0]
    horizon = cfg.float_("grid.horizon_periods") * window
    spw = cfg.int_("fit.samples_per_window")
    burn = cfg.int_("fit.burn_in_windows")
    gamma_pred = analysis.gamma

    report["masses"] = []
    for m in cfg.list_("mass.values"):
        entry = {"m": m}
        try:
            nwin = int(round(horizon / window))
            if m == 0.0:
                times, E = _massless_energies(data, maps, window, spw, nwin)
                share = np.zeros_like(E)
                entry["solver"] = "massless-exact"
            else:
                want = window / spw * (np.arange(nwin * spw) + 0.5)
                run, (times, E, share) = kleingordon.picard_energy_series(
                    data, maps, m, want,
                    resolution=cfg.int_("grid.resolution"),
                    t_max=horizon + 2.0 / spw * window,
                    tol=cfg.float_("picard.tol"),
                    n_max=cfg.int_("picard.n_max"))
                entry["solver"] = "picard"
                entry["iterations"] = run.iterations
                entry["changes"] = [float(c) for c in run.changes]
                entry["picard_bound_ok"] = run.picard_bound_ok()
                entry["field_bound_ratio"] = float(run.field_bound_ratio())
            if np.any(np.diff(times) <= 0):
                raise ValueError("sample times must be strictly increasing")
            if np.any(E < 0):
                raise ValueError("energies must be nonnegative")
            gfit, half_width, info = fit_exponent(times, E, window,
                                                  burn_in_windows=burn)
            entry["gamma_fit"] = gfit
            entry["gamma_fit_half_width"] = half_width
            entry["gamma_predicted"] = gamma_pred
            if gamma_pred:
                entry["sandwich"] = _sandwich(info["window_times"],
                                              info["window_averages"],
                                              gamma_pred, burn)
            path = os.path.join(outdir, "energy_m%s.csv" % _fmt(m))
            _energy_csv(path, times, E, share, window)
            entry["energy_csv"] = path
        except Exception as exc:   # record and continue with other masses
            entry["error"] = "%s: %s" % (type(exc).__name__, exc)
            report["errors"].append("mass %g: %s" % (m, entry["error"]))
        report["masses"].append(entry)

    if cfg.bool_("oracle.enabled"):
        try:
            run = oracle_fdm.solve_oracle(
                data, motion, m=0.0, n_y=cfg.int_("oracle.n_y"),
                t_max=cfg.float_("oracle.horizon"))
            profile = build_initial_profile(data, maps)
            ts, ds, overall = oracle_fdm.compare(run, profile)
            report["oracle"] = {
                "n_y": cfg.int_("oracle.n_y"),
                "horizon": cfg.float_("oracle.horizon"),
                "sup_discrepancy": float(overall),
            }
        except (oracle_fdm.Unstable, oracle_fdm.NoOverlap) as exc:
            report["errors"].append("oracle: %s: %s" % (type(exc).__name__, exc))
            report["oracle"] = None

    with open(os.path.join(outdir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return report


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(type(o).__name__)


# ---------------------------------------------------------------------------
# parameter scan
# ---------------------------------------------------------------------------

# the numeric parameters each wall profile reads: the keys a scan may sweep
_SCAN_FIELDS = {"sinusoidal": ("alpha", "beta", "period"),
                "constant": ("alpha", "period"),
                "fourier": ("mean", "period")}


def _dispatch(fn, args, workers):
    """[fn(a) for a in args], in a process pool when workers > 1."""
    if workers > 1 and len(args) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, args))
    return [fn(a) for a in args]


def _parse_scan_values(cfg):
    spec_str = str(cfg.values["scan.values"]).strip()
    if ":" not in spec_str:
        return cfg.list_("scan.values")
    try:
        lo, hi, n = spec_str.split(":")
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("non-finite bound")
        return list(np.linspace(lo, hi, int(n)))
    except ValueError:
        raise ConfigError("key scan.values: expected 'lo:hi:n' with finite lo and hi, got %r"
                          % spec_str)


def _scan_point(args):
    cfg_values, param, value = args
    cfg = ExperimentConfig(cfg_values)
    row = {"param": value, "rho": None, "rho_err": None, "p": None, "q": None,
           "gamma": None, "gamma_fit": None, "status": "ok"}
    field = param.split(".", 1)[1]
    try:
        motion, maps, analysis = analyze_config_map(cfg, {field: value})
    except Exception as exc:
        row["status"] = "%s: %s" % (type(exc).__name__, exc)
        return row
    row["rho"] = analysis.rotation_estimate
    row["rho_err"] = analysis.rotation_half_width
    if analysis.resonance:
        row["p"], row["q"] = analysis.resonance
    row["gamma"] = analysis.gamma
    row["status"] = analysis.status
    if cfg.bool_("scan.simulate") and analysis.status == "ok":
        try:
            window = analysis.resonance[0] * motion.period
            nwin = max(int(cfg.float_("scan.sim_periods")), 6)
            times, E = _massless_energies(
                cfg.make_data(maps.a0), maps, window,
                cfg.int_("fit.samples_per_window"), nwin)
            gfit, _, _ = fit_exponent(times, E, window, burn_in_windows=1)
            row["gamma_fit"] = gfit
        except Exception as exc:
            row["status"] = "sim:%s: %s" % (type(exc).__name__, exc)
    return row


def scan(cfg, workers=1):
    """Sweep one boundary parameter; one CSV row per point, errors in-row.

    Rows are sorted by parameter value before writing, so output bytes are
    identical for any worker count.
    """
    cfg.validate(need_fit=False)
    values = _parse_scan_values(cfg)
    param = cfg.str_("scan.parameter")
    profile = cfg.str_("boundary.profile")
    allowed = ["boundary." + f for f in _SCAN_FIELDS.get(profile, ())]
    if param not in allowed:
        raise ConfigError("scan.parameter %r is not read by a %r wall (scannable: %s)"
                          % (param, profile, ", ".join(allowed) or "none"))
    rows = _dispatch(_scan_point, [(cfg.values, param, v) for v in values],
                     workers)
    rows.sort(key=lambda r: r["param"])
    path = os.path.join(cfg.str_("output.dir"), "scan.csv")
    with open(path, "w", newline="") as fh:
        fh.write("param,rho,rho_err,p,q,gamma,gamma_fit,status\n")
        for r in rows:
            fh.write(",".join([
                _fmt(r["param"]), _fmt(r["rho"]), _fmt(r["rho_err"]),
                "" if r["p"] is None else str(r["p"]),
                "" if r["q"] is None else str(r["q"]),
                _fmt(r["gamma"]), _fmt(r["gamma_fit"]),
                str(r["status"]).replace(",", ";"),
            ]) + "\n")
    return rows


# ---------------------------------------------------------------------------
# invariant battery behind the `verify` subcommand
# ---------------------------------------------------------------------------
# Each check takes (cfg, motion, maps, rng) and returns (ok, detail).

def _chk_motion(cfg, motion, maps, rng):
    T = motion.period
    ts = np.linspace(0.0, T, 1000)
    per = np.max(np.abs(np.asarray(motion.a(ts + T)) - np.asarray(motion.a(ts))))
    ok = per <= 1e-10 * max(1.0, motion.a_max) and motion.a_min > 0 \
        and motion.da_max < 1.0
    return ok, "periodicity %.2e, a in [%g, %g], sup|a'| %.3f" % (
        per, motion.a_min, motion.a_max, motion.da_max)


def _chk_maps(cfg, motion, maps, rng):
    T = motion.period
    x = rng.uniform(-3 * T, 3 * T, 1000)
    e1 = float(np.max(np.abs(maps.F(maps.F_inv(x)) - x)))
    e2 = float(np.max(np.abs(maps.F(x + T) - maps.F(x) - T)))
    xs = np.sort(x)
    mono = bool(np.all(np.diff(maps.F(xs)) > 0))
    d = np.asarray(maps.F_and_dF(x)[1])
    bounds = bool(np.all((d >= maps.dF_min - 1e-12) & (d <= maps.dF_max + 1e-12)))
    step = x - np.asarray(maps.F_inv(x))
    stp = bool(np.all((step >= 2 * motion.a_min - 1e-9)
                      & (step <= 2 * motion.a_max + 1e-9)))
    ok = e1 <= 1e-10 and e2 <= 1e-10 and mono and bounds and stp
    return ok, "inv %.1e, lift %.1e, monotone %s, dF in bounds %s, step identity %s" % (
        e1, e2, mono, bounds, stp)


def _chk_herman(cfg, motion, maps, rng):
    x0 = float(rng.uniform(-maps.a0, maps.a0))
    n = 500
    e1, h1 = circle_dynamics.rotation_number(maps, n, x0)
    e2, lo, hi = circle_dynamics.rotation_bracket(maps, 10 * n, x0)
    if lo is None:
        # no orbit step counted: Herman's bar around the 10n estimate
        lo, hi = e2 - maps.T / (10 * n), e2 + maps.T / (10 * n)
    else:
        lo, hi = float(lo) * maps.T, float(hi) * maps.T
    spread = max(e1 - lo, hi - e1)
    ok = abs(e1 - e2) <= h1 and spread <= h1
    return ok, ("|rho_n - rho_10n| = %.2e, 10n bracket within %.2e of rho_n, <= T/n = %.2e"
                % (abs(e1 - e2), spread, h1))


def _chk_profile(cfg, motion, maps, rng):
    a0, T = maps.a0, motion.period
    data = cfg.make_data(a0)
    comp = cauchy.check_compatibility(data, motion)
    if not comp.all_passed:
        return False, "compatibility failed: " + "; ".join(
            l for l, okk in zip(comp.lines(), comp.passed) if not okk)
    prof = build_initial_profile(data, maps)
    eta = rng.uniform(-a0, a0 + 3 * T, 100)
    wall = np.max(np.abs(prof.eval_phi(np.asarray(maps.F(eta)), eta)))
    x = rng.uniform(0.0, a0, 100)
    tr = np.max(np.abs(prof.eval_phi(x, -x) - np.asarray(data.phi0(x))))
    pro = np.max(np.abs(prof.G(np.asarray(maps.F(eta))) - prof.G(eta)))
    ok = wall <= 1e-9 and tr <= 1e-9 and pro <= 1e-9
    return ok, "wall trace %.1e, initial trace %.1e, prolongation %.1e" % (wall, tr, pro)


def _chk_energy_step(cfg, motion, maps, rng):
    prof = build_initial_profile(cfg.make_data(maps.a0), maps)
    t1 = float(rng.uniform(0.5, 3.0))
    t2 = t1 + float(rng.uniform(0.0, 2 * motion.a_min))
    E1, E2 = prof.energy(t1), prof.energy(t2)
    lo = E1 / maps.dF_max - 1e-12
    hi = E1 / maps.dF_min + 1e-12
    ok = lo <= E2 <= hi
    s1, _ = circle_dynamics.weighted_integral(maps, t1, 2, panels=512)
    s2, _ = circle_dynamics.weighted_integral(maps, t2, 2, panels=512)
    okS = (maps.dF_min**2 / maps.dF_max) * s1 - 1e-12 <= s2 <= (maps.dF_max**2 / maps.dF_min) * s1 + 1e-12
    return ok and okS, "E0 step %s, S_j step %s (t1=%.3f, t2=%.3f)" % (ok, okS, t1, t2)


def _chk_geometry(cfg, motion, maps, rng):
    pts = []
    for _ in range(200):
        t = rng.uniform(0.1, 4.0)
        x = rng.uniform(1e-3, float(motion.a(t)) - 1e-3)
        pts.append((t + x, t - x))
    xi, eta = np.array(pts).T
    mm = kleingordon.measure_M(maps, xi, eta)
    bound = 2.0 * motion.a_max * kleingordon.time_of(xi, eta)
    worst = max(0.0, float(np.max(mm - bound)))
    return worst <= 1e-9, "max(measure(M) - 2 a_max T) = %.2e" % worst


def _chk_massive(cfg, motion, maps, rng):
    data = cfg.make_data(maps.a0)
    m = 0.4
    fg = kleingordon.picard_solve(data, maps, m, resolution=128,
                                  t_max=2.5, tol=1e-9)
    dom = fg.picard_bound_ok()
    fb = fg.field_bound_ratio() <= 1.1
    res = kleingordon.verify_integral_identity(fg, samples=40,
                                               seed=cfg.int_("seed"))
    budget = 50.0 * fg.lattice.delta * max(fg.sup_phi(), 1e-30)
    ok = dom and fb and res <= budget
    return ok, "picard bound %s, field bound %s, M-identity %.2e <= %.2e" % (
        dom, fb, res, budget)


# (name, check, random stream): a check draws from its own fresh generator
# default_rng([seed, stream]); the two stream-2 checks draw the same numbers
_VERIFY_CHECKS = (
    ("motion_invariants", _chk_motion, None),
    ("map_identities", _chk_maps, 0),
    ("rotation_herman", _chk_herman, 1),
    ("profile_traces", _chk_profile, 2),
    ("energy_sandwich_steps", _chk_energy_step, 2),
    ("geometry_measure", _chk_geometry, 3),
    ("massive_bounds", _chk_massive, None),
)


def _verify_one(args):
    cfg_values, name, check, stream = args
    cfg = ExperimentConfig(cfg_values)
    motion = cfg.make_motion()
    maps = boundary.CharacteristicMaps(motion)
    rng = None if stream is None else np.random.default_rng([cfg.int_("seed"), stream])
    try:
        ok, detail = check(cfg, motion, maps, rng)
    except Exception as exc:
        return name, False, "ERROR %s: %s" % (type(exc).__name__, exc)
    return name, bool(ok), detail


def run_verify(cfg, workers=1):
    """Run the invariant battery; returns (all_ok, lines).

    Lines are sorted by check name and written byte-identically regardless
    of the worker count.
    """
    cfg.validate(need_fit=False)
    results = _dispatch(_verify_one, [(cfg.values, *c) for c in _VERIFY_CHECKS],
                        workers)
    results.sort(key=lambda r: r[0])
    lines = ["%-4s %-24s %s" % ("PASS" if ok else "FAIL", name, detail)
             for name, ok, detail in results]
    all_ok = all(ok for _, ok, _ in results)
    path = os.path.join(cfg.str_("output.dir"), "verify.txt")
    with open(path, "w", newline="") as fh:
        for ln in lines:
            fh.write(ln + "\n")
        fh.write("RESULT %s\n" % ("PASS" if all_ok else "FAIL"))
    return all_ok, lines
