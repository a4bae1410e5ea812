"""One measured kgcavity run, in the fresh process that run.py starts.

Usage: python3 child.py SPEC_JSON RESULT_JSON

Set-up (importing the package, parsing the generated config, validating the
motion and building the characteristic maps) ends at the ``ready`` stamp,
taken on the system-wide monotonic clock so that run.py can add the
interpreter's own start-up.  The timed body then runs one workload as a few
named steps, each a call of the package's public API timed on its own, with
the reference loop of hostspeed.py timed before and after each step; output
checks, digests and the result file come after the body.
"""

import hashlib
import json
import os
import resource
import sys
import time
import traceback

import checks
import hostspeed
import spans


# measure_M probes timed as one step of the crosscheck workload; the reference
# loop runs between steps, so it samples the host's speed every chunk
MEASURE_CHUNK = 100


class Steps:
    """Seconds taken by each named step of a workload body.

    ``reference`` holds the reference loop's times, ``hostspeed.SAMPLES`` of
    them before the first step and as many after each step.
    """

    def __init__(self):
        self.seconds = {}
        self.reference = []

    def _sample_host(self):
        self.reference += [hostspeed.reference_loop() for _ in range(hostspeed.SAMPLES)]

    def time(self, name, fn, *args, **kwargs):
        if not self.reference:
            self._sample_host()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.seconds[name] = time.perf_counter() - start
        self._sample_host()
        return result


def _simulate(cfg, motion, maps, spec, out, steps):
    from kgcavity import experiment

    report = steps.time("run_experiment", experiment.run_experiment, cfg)
    return lambda: checks.check_simulate(report, out)


def _scan(cfg, motion, maps, spec, out, steps):
    from kgcavity import experiment

    # one scan call per grid point, so that the reference loop runs between points
    rows = []
    for k, alpha in enumerate(cfg.list_("scan.values")):
        point = experiment.ExperimentConfig({
            **cfg.values, "scan.values": repr(alpha),
            "output.dir": os.path.join(cfg.str_("output.dir"), "point%d" % k)})
        rows += steps.time("point%d" % k, experiment.scan, point, workers=1)
    expected = len(cfg.list_("scan.values"))
    return lambda: checks.check_scan(rows, expected, motion.period,
                                     cfg.int_("analysis.rotation_iterations"), out)


def _identity(cfg, maps, tiny):
    from kgcavity import kleingordon

    data = cfg.make_data(maps.a0)
    fg = kleingordon.picard_solve(data, maps, 0.27, resolution=64 if tiny else 256,
                                  t_max=2.0 if tiny else 5.0)
    residual = kleingordon.verify_integral_identity(
        fg, samples=10 if tiny else 100, seed=cfg.int_("seed"))
    return residual / fg.sup_phi(), fg.lattice.delta


def _oracle(cfg, maps, motion, tiny):
    from kgcavity import oracle_fdm
    from kgcavity.characteristics_solver import build_initial_profile

    data = cfg.make_data(maps.a0)
    run = oracle_fdm.solve_oracle(data, motion, 0.0, n_y=256 if tiny else 512,
                                  t_max=1.0 if tiny else 4.0)
    _, _, sup_err = oracle_fdm.compare(run, build_initial_profile(data, maps))
    return sup_err / cfg.float_("data.amplitude")


def _crosscheck(cfg, motion, maps, spec, out, steps):
    from kgcavity import experiment, kleingordon

    tiny = spec["tiny"]
    measures = []
    for k in range(0, len(spec["points"]), MEASURE_CHUNK):
        chunk = spec["points"][k:k + MEASURE_CHUNK]
        measures += steps.time("measure_M%d" % (k // MEASURE_CHUNK), lambda: [
            kleingordon.measure_M(maps, t + x, t - x) for t, x in chunk])
    identity, delta = steps.time("identity", _identity, cfg, maps, tiny)
    oracle = steps.time("oracle", _oracle, cfg, maps, motion, tiny)
    all_ok, lines = steps.time("verify", experiment.run_verify, cfg, workers=1)

    def evaluate():
        # a_max of a sinusoidal wall, independent of the package's extremum search
        a_max = cfg.float_("boundary.alpha") + abs(cfg.float_("boundary.beta"))
        checks.check_measure_M([t for t, _ in spec["points"]], measures, a_max, out)
        out.op(False)
        checks.check_identity(identity, delta, out)
        out.op(False)
        checks.check_oracle(oracle, out)
        checks.check_verify(all_ok, lines, out)
        out.digests["crosscheck values"] = hashlib.sha256(
            repr((measures, identity, oracle)).encode()).hexdigest()
    return evaluate


BODIES = {"simulate": _simulate, "scan": _scan, "crosscheck": _crosscheck}
DIGESTED = ("report.json", "scan.csv", "verify.txt")
# accuracy figures reported with the layers (0 where a workload has none)
ACCURACY = {"gamma_rel_err": "experiment.gamma_rel_err",
            "identity_residual": "kleingordon.identity_residual",
            "oracle_sup_err": "oracle_fdm.sup_err_rel"}


def _files(outdir):
    """Paths of every output file, relative to ``outdir`` and sorted."""
    return sorted(os.path.relpath(os.path.join(d, n), outdir)
                  for d, _, names in os.walk(outdir) for n in names)


def _digests(outdir):
    found = {}
    for path in _files(outdir):
        name = os.path.basename(path)
        if name in DIGESTED or (name.startswith("energy_m") and name.endswith(".csv")):
            with open(os.path.join(outdir, path), "rb") as fh:
                found[path] = hashlib.sha256(fh.read()).hexdigest()
    return found


def _output_bytes(outdir):
    return sum(os.path.getsize(os.path.join(outdir, p)) for p in _files(outdir))


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    import numpy
    import scipy
    from kgcavity import boundary, experiment

    cfg = experiment.ExperimentConfig.from_file(spec["config_path"])
    motion = cfg.make_motion()
    maps = boundary.CharacteristicMaps(motion)
    ready = time.monotonic()

    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        spans.instrument(tracer)
    out = checks.Outcome()
    steps = Steps()
    errors = []
    try:
        evaluate = BODIES[spec["workload"]](cfg, motion, maps, spec, out, steps)
    except Exception:   # a program failure: report it with the run
        evaluate = None
        errors.append(traceback.format_exc())
    wall = sum(steps.seconds.values())
    if evaluate is not None:
        try:
            evaluate()
        except Exception:
            errors.append(traceback.format_exc())
    if errors:
        out.op(True, "raised %s" % errors[-1].strip().splitlines()[-1])

    outdir = cfg.str_("output.dir")
    result = {
        "ready": ready,
        "wall_s": wall,
        "steps": steps.seconds,
        "reference_s": steps.reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": {**_digests(outdir), **out.digests},
        "output_bytes": _output_bytes(outdir),
        "errors": errors,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        **out.to_dict(),
    }
    if tracer is not None:
        layers = tracer.layer_metrics(wall)
        layers["experiment.output_bytes"] = (result["output_bytes"], "B")
        for key, name in ACCURACY.items():
            layers[name] = (out.accuracy.get(key, 0.0), "ratio")
        result["layers"] = layers
        tracer.dump(spec["spans_path"])
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
