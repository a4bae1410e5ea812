"""Layer spans for kgcavity, recorded from outside the package.

:func:`instrument` replaces public functions and methods of the package's
modules with wrappers that record a span per call: name, start, end and the
index of the enclosing span.  Some wrappers also count work (points, orbit
steps, sweeps) from the call's arguments or result.  The package's files are
not touched; the wrappers live only in the process that installs them, and
the spans stay in memory until :meth:`Tracer.layer_metrics` and
:meth:`Tracer.dump` read them at the end of the run.

A span's self time is its duration minus the durations of its direct
children.  Each ``*_s`` metric is the summed duration of the layer's spans,
except ``boundary.invert_s``, ``circle_dynamics.analyze_map_self_s`` and
``experiment.self_s``, which are self times.
"""

import gzip
import json
import statistics
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self._open = []
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.minima = {}

    def wrap(self, owner, attr, name, hook=None):
        """Replace ``owner.attr`` by a wrapper recording span ``name``."""
        original = getattr(owner, attr)
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            spans.append(span)
            open_.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)

    def keep_max(self, key, value):
        self.maxima[key] = max(self.maxima[key], value)

    def keep_min(self, key, value):
        self.minima[key] = min(self.minima.get(key, value), value)

    def totals(self):
        """Per span name: (calls, summed duration, summed self time)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, incl, self_t = defaultdict(int), defaultdict(float), defaultdict(float)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += t1 - t0
            self_t[name] += t1 - t0 - child[i]
        return calls, incl, self_t

    def root_time(self):
        return sum(t1 - t0 for _, t0, t1, parent in self.spans if parent < 0)

    def durations(self, name):
        return [t1 - t0 for n, t0, t1, _ in self.spans if n == name]

    def dump(self, path):
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
            fh.write("\n")

    def layer_metrics(self, body_wall):
        """Per-layer metrics (name -> (value, unit)) of the traced body."""
        calls, incl, self_t = self.totals()
        c, mx = self.counts, self.maxima
        scan_points = self.durations("experiment.scan_point")
        pull_n = max(c["pullback_points"], 1.0)
        depth_n = max(calls["kleingordon.depth"], 1)
        sec, n = "s", "count"
        return {
            "boundary.invert_s": (self_t["boundary.invert"], sec),
            "boundary.invert_calls": (calls["boundary.invert"], n),
            "boundary.invert_points": (c["invert_points"], n),
            "boundary.orbit_translation_s": (incl["boundary.orbit_translation"], sec),
            "boundary.orbit_steps": (c["orbit_steps"], n),
            "boundary.validate_motion_s": (incl["boundary.validate_motion"], sec),
            "circle_dynamics.rotation_number_s": (incl["circle_dynamics.rotation_number"], sec),
            "circle_dynamics.find_periodic_points_s":
                (incl["circle_dynamics.find_periodic_points"], sec),
            "circle_dynamics.periodic_points": (c["periodic_points"], n),
            "circle_dynamics.analyze_map_self_s": (self_t["circle_dynamics.analyze_map"], sec),
            "circle_dynamics.weighted_integral_s":
                (incl["circle_dynamics.weighted_integral"], sec),
            "cauchy.check_compatibility_s": (incl["cauchy.check_compatibility"], sec),
            "cauchy.check_compatibility_calls": (calls["cauchy.check_compatibility"], n),
            "characteristics_solver.pullback_s": (incl["characteristics_solver.pullback"], sec),
            "characteristics_solver.pullback_points": (c["pullback_points"], n),
            "characteristics_solver.pullback_depth_mean": (c["pullback_depth_sum"] / pull_n, n),
            "characteristics_solver.pullback_depth_max": (mx["pullback_depth_max"], n),
            "characteristics_solver.energy_series_s":
                (incl["characteristics_solver.energy_series"], sec),
            "characteristics_solver.energy_samples": (c["energy_samples"], n),
            "kleingordon.picard_solve_s": (incl["kleingordon.picard_solve"], sec),
            "kleingordon.picard_sweeps": (c["picard_sweeps"], n),
            "kleingordon.picard_bound_margin_min":
                (self.minima.get("picard_bound_margin", 0.0), "frac"),
            "kleingordon.band_cells": (mx["band_cells"], n),
            "kleingordon.band_bytes_computed": (mx["band_bytes"], "B"),
            "kleingordon.slice_energy_s": (incl["kleingordon.slice_energy"], sec),
            "kleingordon.slices_requested": (c["slices_requested"], n),
            "kleingordon.slices_returned": (c["slices_returned"], n),
            "kleingordon.measure_M_s": (incl["kleingordon.measure_M"], sec),
            "kleingordon.measure_M_calls": (calls["kleingordon.measure_M"], n),
            "kleingordon.depth_mean": (c["depth_sum"] / depth_n, n),
            "kleingordon.union_M_rects": (c["union_M_rects"], n),
            "kleingordon.interp_phi_s": (incl["kleingordon.interp_phi"], sec),
            "kleingordon.interp_phi_points": (c["interp_phi_points"], n),
            "kleingordon.verify_integral_identity_s":
                (incl["kleingordon.verify_integral_identity"], sec),
            "oracle_fdm.solve_s": (incl["oracle_fdm.solve"], sec),
            "oracle_fdm.steps": (c["oracle_steps"], n),
            "oracle_fdm.cells": (c["oracle_cells"], n),
            "oracle_fdm.compare_s": (incl["oracle_fdm.compare"], sec),
            "experiment.fit_exponent_s": (incl["experiment.fit_exponent"], sec),
            "experiment.self_s": (sum(v for k, v in self_t.items()
                                      if k in _ORCHESTRATION), sec),
            "experiment.scan_point_s_p50":
                (statistics.median(scan_points) if scan_points else 0.0, sec),
            "experiment.scan_point_s_max": (max(scan_points, default=0.0), sec),
            "trace.coverage_frac": (self.root_time() / body_wall, "frac"),
        }


_ORCHESTRATION = ("experiment.run_experiment", "experiment.scan",
                  "experiment.scan_point", "experiment.run_verify",
                  "experiment.analyze_config_map")


def _count_size(key, i):
    def hook(tr, args, result):
        tr.counts[key] += np.size(args[i])
    return hook


def _orbit(tr, args, result):
    tr.counts["orbit_steps"] += int(args[2])


def _periodic(tr, args, result):
    tr.counts["periodic_points"] += len(result)


def _pullback(tr, args, result):
    depth = result[1]
    tr.counts["pullback_points"] += depth.size
    tr.counts["pullback_depth_sum"] += float(depth.sum())
    if depth.size:
        tr.keep_max("pullback_depth_max", float(depth.max()))


def _picard(tr, args, fg):
    tr.counts["picard_sweeps"] += fg.iterations
    changes, bound = fg.picard_bound()
    for ch, bd in zip(changes[1:], bound[1:]):
        if bd > 0:
            tr.keep_min("picard_bound_margin", 1.0 - ch / bd)
    cells = fg.lattice.R * fg.lattice.Wmax
    tr.keep_max("band_cells", cells)
    # picard_solve holds four float64 band arrays: phi_prev, phi_new, C, D
    tr.keep_max("band_bytes", 4 * 8 * cells)


def _slices(tr, args, result):
    tr.counts["slices_requested"] += np.size(args[1])
    tr.counts["slices_returned"] += len(result[0])


def _depth(tr, args, result):
    tr.counts["depth_sum"] += result


def _union(tr, args, result):
    tr.counts["union_M_rects"] += len(result)


def _oracle(tr, args, run):
    tr.counts["oracle_steps"] += len(run.ts) - 1
    tr.counts["oracle_cells"] += run.psi.size


def instrument(tracer):
    """Wrap the public layer entry points of every kgcavity module."""
    from kgcavity import (boundary, cauchy, characteristics_solver,
                          circle_dynamics, experiment, kleingordon, oracle_fdm)

    maps = boundary.CharacteristicMaps
    profile = characteristics_solver.MasslessProfile
    field = kleingordon.FieldGrid
    table = [
        (maps, "h_inv", "boundary.invert", _count_size("invert_points", 1)),
        (maps, "k_inv", "boundary.invert", _count_size("invert_points", 1)),
        (maps, "orbit_translation", "boundary.orbit_translation", _orbit),
        (boundary, "validate_motion", "boundary.validate_motion", None),
        (circle_dynamics, "rotation_number", "circle_dynamics.rotation_number", None),
        (circle_dynamics, "find_periodic_points",
         "circle_dynamics.find_periodic_points", _periodic),
        (circle_dynamics, "analyze_map", "circle_dynamics.analyze_map", None),
        (circle_dynamics, "weighted_integral", "circle_dynamics.weighted_integral", None),
        (cauchy, "check_compatibility", "cauchy.check_compatibility", None),
        (profile, "pullback", "characteristics_solver.pullback", _pullback),
        (profile, "energy_series", "characteristics_solver.energy_series",
         _count_size("energy_samples", 1)),
        (kleingordon, "picard_solve", "kleingordon.picard_solve", _picard),
        (field, "energy_series", "kleingordon.slice_energy", _slices),
        (kleingordon, "measure_M", "kleingordon.measure_M", None),
        (kleingordon, "depth", "kleingordon.depth", _depth),
        (kleingordon, "union_M", "kleingordon.union_M", _union),
        (field, "interp_phi", "kleingordon.interp_phi", _count_size("interp_phi_points", 1)),
        (kleingordon, "verify_integral_identity",
         "kleingordon.verify_integral_identity", None),
        (oracle_fdm, "solve_oracle", "oracle_fdm.solve", _oracle),
        (oracle_fdm, "compare", "oracle_fdm.compare", None),
        (experiment, "run_experiment", "experiment.run_experiment", None),
        (experiment, "scan", "experiment.scan", None),
        (experiment, "_scan_point", "experiment.scan_point", None),
        (experiment, "run_verify", "experiment.run_verify", None),
        (experiment, "analyze_config_map", "experiment.analyze_config_map", None),
        (experiment, "fit_exponent", "experiment.fit_exponent", None),
    ]
    for owner, attr, name, hook in table:
        tracer.wrap(owner, attr, name, hook)
