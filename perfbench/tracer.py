"""Tracing from outside the package: spans around public calls, counters on
hot per-point methods, and the per-layer metrics derived from both.

The tracer patches module and class attributes of `shrinkerlab` while it is
installed and restores them afterwards; the package itself is unchanged.

* A span (name, start, end, parent, task) is recorded around each call into
  a public function listed in SPANS.  Spans are kept in memory and written
  out at the end of the run.  A layer's self time is the span's duration
  minus the time covered by its child spans.
* The hot per-point methods listed in COUNTED are counted, not spanned: a
  span per call would cost more than the call.  Counts are attributed to the
  layer of the innermost open span, so that depth evaluations made by the
  Monte Carlo layer can be told apart from those of the grid.
* A hook whose target no longer exists is reported as absent, and the
  metrics it feeds read 0.

Every value is kept per task, and the per-layer metrics are per pass: the
sum over tasks of (total for the task / traced runs of the task).  Each run
of a task does the same work, so exact counts repeat bit for bit however
many passes a run makes.
"""

import json
import sys
import time
from collections import defaultdict

# public functions and methods wrapped in spans -> the self-time metric they feed
SPANS = {
    "geometry.surface_samples": "geometry.samples_s",
    "geometry.ParametrizedPatch.sample": "geometry.samples_s",
    "geometry.cylinder_identities": "geometry.identities_s",
    "geometry.extrinsic_volume_growth": "geometry.volume_growth_s",
    "fields.ScalarField.batch": None,
    "solver.Grid.__init__": "solver.grid_s",
    "solver.solve_mixed_bvp": "solver.solve_s",
    "solver.solve_exhaustion": "solver.exhaustion_s",
    "solver.solve_slab": "solver.oracle_build_s",
    "solver.solve_radial": "solver.oracle_build_s",
    "solver.max_node_error": "solver.oracle_eval_s",
    "energy.caccioppoli_check": None,
    "energy.dirichlet_energy": None,
    "energy.weighted_gradient_cells": "energy.cells_s",
    "energy.boundary_flux": "energy.flux_s",
    "energy.marching_boundary_integral": "energy.flux_s",
    "energy.energy_of_field": "energy.of_field_s",
    "reilly.reilly_residual": None,
    "reilly.energy_growth_chain": "reilly.chain_s",
    "barrier.build_psi": "barrier.build_psi_s",
    "barrier.supersolution_check": "barrier.supersolution_s",
    "barrier.separation_check": "barrier.separation_s",
    "barrier.lipschitz_barrier": None,
    "mc.ou_hitting_probability": "mc.estimate_s",
}

# the spans whose first calls carry the solver's one-time set-up cost
WARMUP_SPANS = ("solver.Grid", "solver.solve_mixed_bvp", "solver.solve_exhaustion")

# hot per-point methods, counted and not spanned -> (count metric, timed)
COUNTED = {
    "fields.ScalarField.__call__": ("fields.point_evals", False),
    "domain.OrientedBoundary.depth": ("domain.depth_calls", True),
    "domain.OrientedBoundary.exterior_normal": ("domain.exterior_normal_calls", False),
    "domain.PlaneBoundary.principal_curvatures": ("domain.curvature_calls", False),
    "domain.SphereBoundary.principal_curvatures": ("domain.curvature_calls", False),
    "solver.SlabProfile.__call__": ("solver.oracle_points", False),
    "solver.RadialProfile.__call__": ("solver.oracle_points", False),
    "quadrature.adaptive_simpson": ("quadrature.simpson_calls", True),
}


def _layer(name):
    return name.split(".", 1)[0]


def _rows(x):
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) > 1 else 1


def _solve_result(args, kwargs, result, note, parent_layer):
    details = result.report.details
    note("solver.unknowns", details["unknowns"])
    note("solver.defensive_mirrors", details["defensive_mirrors"])


def _mc_result(args, kwargs, result, note, parent_layer):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[2]
    effective = result.hits_sigma1 + result.hits_sigma2
    note("mc.paths", cfg.n_paths)
    note("mc.truncated", result.truncated)
    # exit times are whole steps, so this is the number of steps walked
    note("mc.steps_useful", round(result.mean_exit_time * effective / cfg.dt))


def _batch_result(args, kwargs, result, note, parent_layer):
    if parent_layer == "reilly":
        note("reilly.field_points", _rows(args[1]))


# values read off the results of spanned calls
RESULTS = {
    "solver.solve_mixed_bvp": _solve_result,
    "mc.ou_hitting_probability": _mc_result,
    "fields.ScalarField.batch": _batch_result,
}


class Tracer:
    """Spans and counters of one benchmark run."""

    def __init__(self, package):
        self.package = package
        self.spans = []          # [name, start, end, parent index, task]
        self.stack = []
        self.task = "setup"
        self.runs = defaultdict(int)      # task -> traced runs
        # (task, layer of the innermost span) -> hook -> [calls, points, seconds]
        self.hot = defaultdict(lambda: defaultdict(lambda: [0, 0, 0.0]))
        self.cur = self.hot[(self.task, "bench")]
        self.values = defaultdict(float)  # (task, key) -> value
        self.absent = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _top_layer(self):
        return _layer(self.spans[self.stack[-1]][0]) if self.stack else "bench"

    def begin_task(self, task):
        self.task = task
        self.runs[task] += 1
        self.cur = self.hot[(task, self._top_layer())]

    def note(self, key, value):
        self.values[(self.task, key)] += value

    def _push(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.task])
        self.stack.append(len(self.spans) - 1)
        self.cur = self.hot[(self.task, _layer(name))]

    def _pop(self, failed):
        idx = self.stack.pop()
        self.spans[idx][2] = time.perf_counter()
        if failed:
            self.note(_layer(self.spans[idx][0]) + ".errors", 1)
        self.cur = self.hot[(self.task, self._top_layer())]

    # -- installing hooks --------------------------------------------------

    def _resolve(self, name):
        """(owner, attribute, function) for "module.Class.method" or
        "module.function", or None when the target no longer exists."""
        module, *path = name.split(".")
        owner = getattr(self.package, module, None)
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        if owner is None:
            return None
        if isinstance(owner, type):
            fn = vars(owner).get(path[-1])
        else:
            fn = getattr(owner, path[-1], None)
        return None if fn is None else (owner, path[-1], fn)

    def _patch(self, name, wrap):
        found = self._resolve(name)
        if found is None:
            self.absent.append(name)
            return
        owner, attr, fn = found
        wrapper = wrap(name.removesuffix(".__init__"), fn)
        targets = [owner]
        if not isinstance(owner, type):
            # a function imported by other package modules is called through
            # their bindings too
            prefix = self.package.__name__ + "."
            targets += [m for key, m in sorted(sys.modules.items())
                        if key.startswith(prefix) and m is not owner
                        and getattr(m, attr, None) is fn]
        for target in targets:
            self._patches.append((target, attr, fn))
            setattr(target, attr, wrapper)

    def _span_wrapper(self, name, fn):
        tracer = self
        on_result = RESULTS.get(name)

        def spanned(*args, **kwargs):
            parent_layer = tracer._top_layer()
            tracer._push(name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                tracer._pop(failed)
            if on_result is not None:
                try:
                    on_result(args, kwargs, result, tracer.note, parent_layer)
                except (AttributeError, KeyError, IndexError, TypeError):
                    tracer.absent.append(name + " result fields")
            return result

        return spanned

    def _count_wrapper(self, name, fn):
        tracer = self
        errors = _layer(name) + ".errors"

        if COUNTED[name][1]:
            def counted(*args, **kwargs):
                cell = tracer.cur[name]
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    tracer.note(errors, 1)
                    raise
                finally:
                    cell[0] += 1
                    cell[1] += _rows(args[1]) if len(args) > 1 else 1
                    cell[2] += time.perf_counter() - t0
        else:
            def counted(*args, **kwargs):
                tracer.cur[name][0] += 1
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    tracer.note(errors, 1)
                    raise

        return counted

    def install(self):
        for name in SPANS:
            self._patch(name, self._span_wrapper)
        for name in COUNTED:
            self._patch(name, self._count_wrapper)

    def uninstall(self):
        for target, attr, fn in reversed(self._patches):
            setattr(target, attr, fn)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def _self_times(self):
        """Self time of every span, in span order."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def dump(self, path):
        records = [{"name": n, "start": s, "end": e, "parent": p, "task": t}
                   for n, s, e, p, t in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": records, "absent": sorted(set(self.absent))}, fh)

    def per_layer(self, tasks):
        """Per-pass per-layer metrics over the timed `tasks`.

        Tasks that run on a mesh end their name in its tag ("phi1.h32"),
        which keys the per-mesh Reilly times.
        """
        runs = {t: self.runs[t] for t in tasks if self.runs[t]}
        out = defaultdict(float)
        span_metric = {name.removesuffix(".__init__"): metric
                       for name, metric in SPANS.items()}

        for i, secs in enumerate(self._self_times()):
            name, _, _, parent, task = self.spans[i]
            if task.startswith("warmup:") and name in WARMUP_SPANS:
                out["solver.warmup_s"] += secs
            if task not in runs:
                continue
            secs /= runs[task]
            if span_metric.get(name):
                out[span_metric[name]] += secs
            if name == "reilly.reilly_residual":
                out["reilly.residual_s." + task.rsplit(".", 1)[-1]] += secs
            if (name == "fields.ScalarField.batch" and parent >= 0
                    and _layer(self.spans[parent][0]) == "reilly"):
                out["reilly.field_s"] += secs

        for (task, key), value in self.values.items():
            if task in runs:
                out[key] += value / runs[task]

        for (task, layer), cells in self.hot.items():
            if task not in runs:
                continue
            for hook, (calls, points, secs) in cells.items():
                calls, points, secs = (v / runs[task] for v in (calls, points, secs))
                out[COUNTED[hook][0]] += calls
                if hook == "quadrature.adaptive_simpson":
                    out["quadrature.simpson_s"] += secs
                if hook == "domain.OrientedBoundary.depth":
                    out["domain.depth_points"] += points
                    if layer == "mc":
                        out["mc.depth_s"] += secs
                        # the walker evaluates both boundary pieces at each step
                        out["mc.steps_generated"] += points / 2
        generated = out["mc.steps_generated"]
        out["mc.step_yield"] = out["mc.steps_useful"] / generated if generated else 0.0
        out["trace.absent_hooks"] = len(set(self.absent))
        return out
