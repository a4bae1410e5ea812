"""Output checks of the benchmark, independent of the package.

Each check reads plain outputs (the report dict, scan rows, verify lines,
measured numbers) and returns the operations it attempted, the ones that
failed, a list of problems and the accuracy figures it computed.  An empty
problem list means the output is correct.

Failures are counted by the benchmark's own rule, not by the CLI's exit
codes: ``kgcavity scan`` exits 0 on rows such as ``sim:...`` or
``TypeError: ...``, which count as failed here.
"""

import statistics

# Analysis outcomes a scan row may carry; any other status is a failure.
SCAN_OUTCOMES = ("ok", "no_resonance", "DegenerateMap", "no_periodic_points",
                 "NoAttractor", "NotHyperbolic")
SCAN_OUTCOME_PREFIXES = ("AmbiguousResonance: ", "NeutralPoint at x=")

# Accuracy limits.  They guard against gross errors, so a speed-up cannot buy
# its time with accuracy; the figures they were set from are in README.md.
GAMMA_REL_ERR_MAX = 0.15        # simulate, each fitted mass (measured <= 0.11)
MASS_GAMMA_SPREAD_MAX = 0.05    # simulate, |gamma_fit(m) - gamma_fit(0)| / gamma
SCAN_GAMMA_REL_ERR_MAX = 0.25   # scan, median over fitted rows (measured ~0.1)
FIELD_BOUND_RATIO_MAX = 1.1     # the verify battery's allowance
IDENTITY_DELTAS = 50.0          # residual / sup|phi| <= 50 delta, as in verify
ORACLE_SUP_ERR_MAX = 0.05       # oracle vs exact massless field (measured <= 0.02)
ROUNDOFF = 1e-9


class Outcome:
    """Operations attempted and failed, problems and accuracy of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.accuracy = {}
        self.digests = {}

    def op(self, failed, problem=None):
        self.attempted += 1
        if failed:
            self.failed += 1
            self.problems.append(problem)

    def require(self, ok, problem):
        if not ok:
            self.problems.append(problem)

    def to_dict(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems, "accuracy": self.accuracy}


def gamma_rel_err(fit, predicted):
    return abs(fit - predicted) / predicted


def scan_row_failed(status):
    status = str(status)
    return not (status in SCAN_OUTCOMES
                or status.startswith(SCAN_OUTCOME_PREFIXES))


def check_simulate(report, out=None):
    """The ``simulate`` report: one operation per mass."""
    out = out or Outcome()
    analysis = report.get("map_analysis", {})
    gamma = analysis.get("gamma")
    out.require(analysis.get("status") == "ok" and gamma,
                "map analysis status %r, gamma %r" % (analysis.get("status"), gamma))
    fits = {}
    for entry in report.get("masses", []):
        m = entry.get("m")
        out.op("error" in entry, "mass %r: %s" % (m, entry.get("error")))
        if "error" in entry or not gamma:
            continue
        fits[m] = entry["gamma_fit"]
        err = gamma_rel_err(entry["gamma_fit"], gamma)
        out.require(err <= GAMMA_REL_ERR_MAX,
                    "mass %r: gamma_fit %r is %.3f off gamma %r"
                    % (m, entry["gamma_fit"], err, gamma))
        if entry.get("solver") == "picard":
            out.require(entry.get("picard_bound_ok") is True,
                        "mass %r: Picard changes exceed the factorial bound" % m)
            out.require(entry.get("field_bound_ratio", 2.0) <= FIELD_BOUND_RATIO_MAX,
                        "mass %r: field bound ratio %r" % (m, entry.get("field_bound_ratio")))
    out.require(not report.get("errors"), "report errors: %s" % report.get("errors"))
    if fits and gamma:
        out.accuracy["gamma_rel_err"] = statistics.median(
            gamma_rel_err(f, gamma) for f in fits.values())
    if 0.0 in fits and gamma:
        for m, fit in fits.items():
            spread = abs(fit - fits[0.0]) / gamma
            out.require(spread <= MASS_GAMMA_SPREAD_MAX,
                        "mass %r: gamma_fit differs from the massless fit by %.3g"
                        % (m, spread))
    return out


def check_scan(rows, expected, period, iterations, out=None):
    """Scan rows: one operation per point; resonant rows keep the T/n bar."""
    out = out or Outcome()
    out.require(len(rows) == expected, "%d scan rows, expected %d" % (len(rows), expected))
    errs = []
    for r in rows:
        status = r["status"]
        out.op(scan_row_failed(status), "alpha %r: status %r" % (r["param"], status))
        if r["rho"] is not None:
            out.require(abs(r["rho_err"] - period / iterations) <= ROUNDOFF * period,
                        "alpha %r: rho_err %r is not T/n" % (r["param"], r["rho_err"]))
        if r["p"] is not None:
            gap = abs(r["rho"] - r["p"] / r["q"] * period)
            out.require(gap <= r["rho_err"],
                        "alpha %r: rho %r is %.3g from %d/%d T, beyond T/n"
                        % (r["param"], r["rho"], gap, r["p"], r["q"]))
        if status == "ok":
            ok = bool(r["gamma"]) and r["gamma"] > 0 and r["gamma_fit"] is not None
            out.require(ok, "alpha %r: ok row without gamma and fit" % r["param"])
            if ok:
                errs.append(gamma_rel_err(r["gamma_fit"], r["gamma"]))
    out.require(errs, "no scan row has a fitted exponent")
    if errs:
        err = statistics.median(errs)
        out.accuracy["gamma_rel_err"] = err
        out.require(err <= SCAN_GAMMA_REL_ERR_MAX,
                    "median gamma_fit error %.3f over %d rows" % (err, len(errs)))
    return out


def check_measure_M(times, values, a_max, out=None):
    """0 <= measure(M) <= 2 a_max T at every probe; one operation each."""
    out = out or Outcome()
    for t, v in zip(times, values):
        out.op(False)
        out.require(-ROUNDOFF <= v <= 2.0 * a_max * t + ROUNDOFF,
                    "measure_M = %r outside [0, 2 a_max T = %r] at t=%r"
                    % (v, 2.0 * a_max * t, t))
    return out


def check_identity(residual_rel, delta, out=None):
    out = out or Outcome()
    out.accuracy["identity_residual"] = residual_rel
    out.require(residual_rel <= IDENTITY_DELTAS * delta,
                "integral identity residual %.3g > %g delta" % (residual_rel, IDENTITY_DELTAS))
    return out


def check_oracle(sup_err_rel, out=None):
    out = out or Outcome()
    out.accuracy["oracle_sup_err"] = sup_err_rel
    out.require(sup_err_rel <= ORACLE_SUP_ERR_MAX,
                "oracle discrepancy %.3g > %g" % (sup_err_rel, ORACLE_SUP_ERR_MAX))
    return out


def check_verify(all_ok, lines, out=None):
    """The verify battery: one operation per check line."""
    out = out or Outcome()
    out.require(lines, "verify produced no check lines")
    for line in lines:
        out.op(not line.startswith("PASS") or "ERROR" in line, "verify: %s" % line)
    out.require(all_ok, "verify RESULT FAIL")
    return out


def check_digests(digests):
    """Problems unless every run produced byte-identical outputs."""
    problems = []
    first = digests[0] if digests else {}
    for k, d in enumerate(digests[1:], start=1):
        for name in sorted(set(first) | set(d)):
            if first.get(name) != d.get(name):
                problems.append("output %s of run %d differs from run 0" % (name, k))
    return problems
