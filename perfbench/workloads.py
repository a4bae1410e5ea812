"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of (workload, seed): the same seed gives
the same config and the same probe points.  The program sees only what is
generated here, written out as an ordinary ``key = value`` config file.

Inputs are checked before any run (:func:`check_inputs`): every motion has
sup|a'| < 1 and inf a > 0, and every bump stays strictly inside (0, a(0)) at
every scan point.  A ``BumpOutOfRange`` or ``RejectedMotion`` during a run is
therefore a program failure, never a workload failure.

This module imports nothing from the package, so the parent process stays
small and its start-up never mixes into the measured set-up time.
"""

import math
import random

WORKLOADS = ("simulate", "scan", "crosscheck")

# The motion of demos/example.cfg: a(t) = 0.5 + 0.012 sin(2 pi t), a 1:1
# resonance with gamma = 0.151.
EXAMPLE_MOTION = {"alpha": 0.5, "beta": 0.012, "period": 1.0}

# Scan points over boundary.alpha at beta = 0.14 (sup|a'| = 0.88).  They sit in
# the 2:3, 15:17, 1:1, 4:3 and 5:3 tongues, at a tongue edge without periodic
# points and at quasi-periodic parameters.  The grid is fixed because the cost
# of one point is chaotic in alpha: the Newton iterations per orbit step of
# `orbit_translation` jump between about 8 and 31 when alpha moves by 1e-7, so
# a seeded grid offset would make the scan's wall time a draw from that spread
# instead of a measurement.  The seed draws the initial data instead.
SCAN_ALPHAS = (0.30, 0.35, 0.36, 0.40, 0.50, 0.66, 0.70, 0.80)
SCAN_BETA = 0.14

# Probe points for measure_M in the crosscheck workload.
MEASURE_POINTS = 800
MEASURE_T_MAX = 10.0


def _base_config(seed):
    return {
        "boundary.profile": "sinusoidal",
        "boundary.alpha": EXAMPLE_MOTION["alpha"],
        "boundary.beta": EXAMPLE_MOTION["beta"],
        "boundary.period": EXAMPLE_MOTION["period"],
        "data.family": "bump",
        "data.amplitude": 1.0,
        "data.direction": "right",
        "analysis.rotation_iterations": 100_000,
        "analysis.max_q": 20,
        "fit.samples_per_window": 32,
        "fit.burn_in_windows": 4,
        "output.dir": "out",
        "seed": seed,
    }


def _bump(rng, center_lo, center_hi, width_lo, width_hi):
    return {"data.center": round(rng.uniform(center_lo, center_hi), 6),
            "data.width": round(rng.uniform(width_lo, width_hi), 6)}


def generate(workload, seed, tiny=False):
    """Inputs of one run: ``{"workload", "seed", "config", "points"}``.

    ``config`` maps config keys to values; ``points`` holds the (t, x)
    probes of the crosscheck workload (empty elsewhere).  ``tiny`` shrinks
    every size for smoke tests; the full sizes are the benchmark.
    """
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r (choose from %s)"
                         % (workload, ", ".join(WORKLOADS)))
    rng = random.Random("%s:%d" % (workload, seed))
    cfg = _base_config(seed)
    points = []
    if workload == "simulate":
        # centres beyond 0.2 fit gamma more than 15 % low within 12 periods
        cfg.update(_bump(rng, 0.10, 0.20, 0.05, 0.10))
        cfg.update({"mass.values": "0.0, 0.27",
                    "grid.resolution": 256 if tiny else 512,
                    "grid.horizon_periods": 12})
    elif workload == "scan":
        # the bump must fit below the smallest a(0) = alpha of the sweep
        cfg.update(_bump(rng, 0.10, 0.16, 0.04, 0.08))
        alphas = SCAN_ALPHAS[3:5] if tiny else SCAN_ALPHAS
        cfg.update({"boundary.beta": SCAN_BETA,
                    "scan.parameter": "boundary.alpha",
                    "scan.values": ", ".join(repr(a) for a in alphas),
                    "scan.simulate": "true"})
    else:
        cfg.update(_bump(rng, 0.10, 0.30, 0.05, 0.10))
        for _ in range(40 if tiny else MEASURE_POINTS):
            t = rng.uniform(0.1, 2.0 if tiny else MEASURE_T_MAX)
            x = rng.uniform(1e-3, wall(cfg, t) - 1e-3)
            points.append((t, x))
    if tiny:
        cfg["analysis.rotation_iterations"] = 5_000
    spec = {"workload": workload, "seed": seed, "tiny": bool(tiny),
            "config": cfg, "points": points}
    check_inputs(spec)
    return spec


def wall(cfg, t):
    """a(t) of a sinusoidal config, evaluated independently of the package."""
    return cfg["boundary.alpha"] + cfg["boundary.beta"] * math.sin(
        2.0 * math.pi * t / cfg["boundary.period"])


def check_inputs(spec):
    """Raise ValueError unless every motion and bump of ``spec`` is valid."""
    cfg = spec["config"]
    alphas = [cfg["boundary.alpha"]]
    if cfg.get("scan.parameter") == "boundary.alpha":
        alphas = [float(v) for v in cfg["scan.values"].split(",")]
    beta, period = cfg["boundary.beta"], cfg["boundary.period"]
    speed = 2.0 * math.pi * abs(beta) / period
    lo = cfg["data.center"] - cfg["data.width"]
    hi = cfg["data.center"] + cfg["data.width"]
    for alpha in alphas:
        if not speed < 1.0:
            raise ValueError("sup|a'| = %g >= 1" % speed)
        if not alpha - abs(beta) > 0.0:
            raise ValueError("inf a = %g <= 0" % (alpha - abs(beta)))
        # a(0) = alpha for a sinusoidal wall
        if not (0.0 < lo and hi < alpha):
            raise ValueError("bump [%g, %g] not inside (0, %g)" % (lo, hi, alpha))
    for t, x in spec["points"]:
        if not 0.0 < x < wall(cfg, t):
            raise ValueError("probe (t=%g, x=%g) outside the cavity" % (t, x))


def config_text(cfg):
    """The config as the ``key = value`` file the package parses."""
    return "".join("%s = %s\n" % (k, v) for k, v in sorted(cfg.items()))
