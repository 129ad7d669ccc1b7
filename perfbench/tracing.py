"""Spans and counters recorded around psdfit's layer functions.

The traced run replaces a handful of module attributes with wrappers
that record a span (name, start, end, parent, operation id) for each
call; untraced runs leave the package untouched.  Spans stay in memory
and are written out as JSON lines when the run ends.

A layer's self time is its span's duration minus the time its child
spans cover, so nested calls (a fit inside an analysis, a kernel inside
a fit) are never counted twice.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

# penalty floor of the estimator's objective: values at or above it mean
# the parameter vector put a pole inside the evaluation guard
PENALTY_FLOOR = 1e12

ATOMIC_KINDS = ("discrete", "point_mass")


class Tracer:
    """Records spans and counters; ``patch`` installs the wrappers."""

    def __init__(self):
        self.spans = []          # dicts: id, name, start, end, parent, op
        self.counters = Counter()
        self.op = None           # id of the operation being traced
        self._stack = []
        self._patches = []

    # -- spans -----------------------------------------------------------

    def begin(self, name):
        span = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
                "end": None, "parent": self._stack[-1] if self._stack else None,
                "op": self.op}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        """``fn`` with a span around each call; ``name`` may be a function
        of the call's arguments, ``after`` sees the result."""
        def traced(*args, **kwargs):
            span = self.begin(name(*args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(result)
            return result
        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr, wrapper):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- summaries -------------------------------------------------------

    def self_times(self):
        """Total self time per span name, over finished spans."""
        child = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child[span["parent"]] += span["end"] - span["start"]
        out = defaultdict(float)
        for span in self.spans:
            out[span["name"]] += span["end"] - span["start"] - child[span["id"]]
        return dict(out)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def _wasserstein_layer(a, b, *rest):
    atomic = a.kind in ATOMIC_KINDS and b.kind in ATOMIC_KINDS
    return "models.wasserstein_atomic" if atomic else "models.wasserstein_smooth"


def install(tracer: Tracer):
    """Wrap every layer function at the names its callers look up."""
    import psdfit
    from psdfit import cli, dataio, estimator, simulate

    counters = tracer.counters

    def count_fit(result):
        counters["fit_iterations"] += result.iterations

    def count_points(curve):
        counters["curve_points"] += curve.x.size

    layers = {
        "population_from_model": "simulate.population",
        "population_draw": "simulate.population",
        "sample_spectrum": "simulate.spectrum",
        "build_unet": "estimator.build_unet",
        "fit_discrete": "estimator.fit_discrete",
        "fit_laguerre": "estimator.fit_laguerre",
        "fit_inverse_cubic": "estimator.fit_inverse_cubic",
        "wasserstein": _wasserstein_layer,
        "correlation_spectrum": "dataio.correlation_spectrum",
        "kde_curve": "dataio.kde",
        "lsd_density_curve": "mptransform.curve",
        "support_bounds": "mptransform.support",
        "load_returns_csv": "dataio.load_returns",
        "write_curve_csv": "dataio.write_outputs",
    }
    hooks = {"fit_discrete": count_fit, "lsd_density_curve": count_points}
    for module in (simulate, dataio, cli, psdfit):
        for attr, layer in layers.items():
            if hasattr(module, attr):
                tracer.patch(module, attr, tracer.wrap(
                    layer, getattr(module, attr), hooks.get(attr)))
    # the objective runs thousands of times per atomic fit: count, no span
    objective = estimator.objective

    def counted_objective(*args, **kwargs):
        value = objective(*args, **kwargs)
        counters["objective_calls"] += 1
        counters["pole_guard_hits"] += value >= PENALTY_FLOOR
        return value
    tracer.patch(estimator, "objective", counted_objective)
