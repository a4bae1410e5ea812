"""Command line interface.

Subcommands::

    kgcavity analyze-map CONFIG      # MapAnalysis report as JSON
    kgcavity simulate CONFIG         # full experiment pipeline
    kgcavity scan CONFIG [-w N]      # parameter sweep to CSV
    kgcavity verify CONFIG [-w N]    # invariant battery

Exit codes: 0 pass, 1 usage/config error, 2 numerical failure,
3 acceptance criterion failed; scan records per-point failures in its
``status`` column and exits 0.
"""

import argparse
import json
import os
import sys

from . import experiment
from .experiment import ConfigError, ExperimentConfig


def _load(path):
    if not os.path.exists(path):
        raise ConfigError("config file %r not found" % path)
    return ExperimentConfig.from_file(path)


def cmd_analyze_map(args):
    cfg = _load(args.config)
    cfg.validate(need_fit=False)
    _, _, analysis = experiment.analyze_config_map(cfg)
    doc = json.dumps(analysis.to_dict(), indent=2, sort_keys=True,
                     default=experiment._json_default)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(doc + "\n")
    else:
        print(doc)
    return 0


def cmd_simulate(args):
    cfg = _load(args.config)
    report = experiment.run_experiment(cfg)
    print(json.dumps(report, indent=2, sort_keys=True,
                     default=experiment._json_default))
    return 2 if report["errors"] else 0


def cmd_scan(args):
    cfg = _load(args.config)
    rows = experiment.scan(cfg, workers=args.workers)
    print("scan: %d points -> %s" % (
        len(rows), os.path.join(cfg.str_("output.dir"), "scan.csv")))
    return 0


def cmd_verify(args):
    cfg = _load(args.config)
    ok, lines = experiment.run_verify(cfg, workers=args.workers)
    for ln in lines:
        print(ln)
    print("RESULT %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 3


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="kgcavity",
        description="Klein-Gordon field in an interval with a periodically "
                    "moving Dirichlet wall")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze-map", help="rotation number, periodic points, gamma")
    p.add_argument("config")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_analyze_map)

    p = sub.add_parser("simulate", help="run the experiment pipeline from a config")
    p.add_argument("config")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scan", help="sweep one boundary parameter")
    p.add_argument("config")
    p.add_argument("-w", "--workers", type=int, default=1)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="run the invariant battery")
    p.add_argument("config")
    p.add_argument("-w", "--workers", type=int, default=1)
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:  # numerical failures
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
