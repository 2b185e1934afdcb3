"""Spans around calls into the package's layers, recorded from outside.

`Tracer.install()` wraps every public module-level function of each layer
module. A ``from``-import copies the binding (``cli`` holds its own
``solve_beta``, ``measures`` its own ``greedy_breakpoints``), so the wrapper
replaces the original in every loaded ``shrinkbeta`` module namespace that
holds it, not only in the defining one.

Spans stay in memory as flat arrays until the pass ends. A layer's self
time is the duration of its spans minus the time spent in their direct
children's wrappers. The tracer's own work around a span (bookkeeping and
the observers that read arguments and results) thus falls outside the
caller's self time, and the inclusive times (`*_s` of a function) leave out
the tracer's work inside them; it is charged to no layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

import numpy as np

LAYERS = ("algebra", "gls", "dynamics", "symbolic", "markov", "measures",
          "kernels", "verify", "cli")

# counts that repeat exactly at a fixed seed
COUNT_METRICS = tuple(f"{layer}.calls" for layer in LAYERS) + (
    "algebra.solve_calls", "algebra.solve_distinct",
    "gls.partition_builds", "gls.partition_distinct",
    "measures.preimage_calls", "measures.lift_calls",
    "markov.chain_builds",
    "dynamics.step_calls", "dynamics.return_time_calls",
    "kernels.induced_calls", "kernels.induced_steps", "kernels.map_steps",
    "kernels.chain_calls", "kernels.chain_steps",
    "verify.rows")

# (metric, functions whose calls it counts, metric of their inclusive time)
_FUNCTION_METRICS = (
    ("algebra.solve_calls", ("algebra.solve_beta", "algebra.solve_lambda"),
     None),
    ("gls.partition_builds",
     ("gls.greedy_breakpoints", "gls.lazy_breakpoints"), None),
    ("measures.preimage_calls", ("measures.cylinder_preimage_interval",),
     "measures.preimage_s"),
    ("measures.lift_calls", ("measures.kac_lift",), "measures.lift_s"),
    (None, ("measures.cylinder_overlap",), "measures.overlap_s"),
    (None, ("measures.entropy_rate_estimate", "measures.empirical_entropy"),
     "measures.estimate_s"),
    ("markov.chain_builds", ("markov.build_chain",), None),
    (None, ("markov.check_inequality",), "markov.inequality_s"),
    ("dynamics.step_calls", ("dynamics.step",), None),
    ("dynamics.return_time_calls", ("dynamics.return_time",), None),
    ("kernels.induced_calls", ("kernels.induced_stats",),
     "kernels.induced_s"),
    ("kernels.chain_calls", ("kernels.chain_sample",), "kernels.chain_s"),
)


def _solve(tracer, name, params, result, seconds):
    tracer.solve_keys.add((name, tuple(params.items())))
    if params["precision"] is not None:
        tracer.counters["algebra.mp_s"] += seconds


def _partition(tracer, name, params, result, seconds):
    tracer.partition_keys.add((name, tuple(params.items())))


def _induced(tracer, name, params, result, seconds):
    hist = np.asarray(result[0])
    tracer.counters["kernels.induced_steps"] += (
        np.size(params["x0"]) * int(params["steps"]))
    # hist[t] counts returns at time t, each taking t map steps
    tracer.counters["kernels.map_steps"] += int(
        (np.arange(hist.size) * hist).sum())


def _chain(tracer, name, params, result, seconds):
    tracer.counters["kernels.chain_steps"] += int(params["steps"])


def _rows(tracer, name, params, result, seconds):
    tracer.counters["verify.rows"] += len(result)


_OBSERVERS = {"algebra.solve_beta": _solve, "algebra.solve_lambda": _solve,
              "gls.greedy_breakpoints": _partition,
              "gls.lazy_breakpoints": _partition,
              "kernels.induced_stats": _induced,
              "kernels.chain_sample": _chain,
              "verify.run": _rows}


class Tracer:
    """In-memory span recorder plus the counters the layer table needs."""

    def __init__(self):
        self.names = []          # "layer.function", indexed by name id
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self.span_hidden = array("d")  # tracer time inside the span
        # [span index, time in child wrappers, tracer time inside the span]
        self._stack = []
        self.solve_keys = set()
        self.partition_keys = set()
        self.counters = {"algebra.mp_s": 0.0, "kernels.induced_steps": 0,
                         "kernels.map_steps": 0, "kernels.chain_steps": 0,
                         "verify.rows": 0}
        self._originals = []     # (module, attribute, original function)

    def name_id(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def call(self, name_id, fn, args, kwargs, observe=None):
        """Run fn inside a span and return its result; `observe` (if any)
        then sees the arguments and result."""
        entered = time.perf_counter()
        index = len(self.span_start)
        parent = self._stack[-1] if self._stack else None
        self.span_name.append(name_id)
        self.span_parent.append(parent[0] if parent else -1)
        self.span_end.append(0.0)
        self.span_self.append(0.0)
        self.span_hidden.append(0.0)
        frame = [index, 0.0, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        self.span_start.append(start)
        done = False
        try:
            result = fn(*args, **kwargs)
            done = True
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.span_end[index] = end
            self.span_self[index] = end - start - frame[1]
            self.span_hidden[index] = frame[2]
            if done and observe is not None:
                observe(self, args, kwargs, result, end - start - frame[2])
            if parent is not None:
                # the caller's children cover this whole wrapper; what lies
                # outside the span, and the tracer time inside it, is hidden
                left = time.perf_counter()
                parent[1] += left - entered
                parent[2] += left - entered - (end - start) + frame[2]
        return result

    def wrap(self, layer, fn):
        name = f"{layer}.{fn.__name__}"
        name_id = self.name_id(name)
        observer = _OBSERVERS.get(name)
        tracer = self
        observe = None
        if observer is not None:
            signature = inspect.signature(fn)

            def observe(tracer, args, kwargs, result, seconds):
                params = signature.bind(*args, **kwargs)
                params.apply_defaults()
                observer(tracer, fn.__name__, params.arguments, result,
                         seconds)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name_id, fn, args, kwargs, observe)

        return traced

    def install(self):
        """Wrap every public function of every loaded layer module except
        `cli`, whose span is each operation as a whole (`operation`)."""
        holders = [m for name, m in list(sys.modules.items())
                   if name == "shrinkbeta" or name.startswith("shrinkbeta.")]
        for layer in LAYERS[:-1]:
            module = sys.modules.get(f"shrinkbeta.{layer}")
            if module is None:
                continue
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                traced = self.wrap(layer, fn)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, name, traced)
                            self._originals.append((holder, name, fn))
        return self

    def uninstall(self):
        for holder, name, fn in reversed(self._originals):
            setattr(holder, name, fn)
        self._originals.clear()

    def operation(self, fn, *args):
        """Run one CLI operation as a `cli` span."""
        return self.call(self.name_id("cli.main"), fn, args, {})

    # -- summary -----------------------------------------------------------
    def metrics(self):
        """Layer totals and per-function figures of everything recorded."""
        names = np.asarray(self.span_name, dtype=np.int64)
        dur = (np.asarray(self.span_end) - np.asarray(self.span_start)
               - np.asarray(self.span_hidden))
        self_s = np.asarray(self.span_self)
        layer_of = np.array([LAYERS.index(n.split(".")[0])
                             for n in self.names], dtype=np.int64)
        span_layer = layer_of[names] if names.size else names
        out = {}
        for i, layer in enumerate(LAYERS):
            mask = span_layer == i
            out[f"{layer}.calls"] = int(mask.sum())
            out[f"{layer}.self_s"] = float(self_s[mask].sum())
        for count_metric, functions, time_metric in _FUNCTION_METRICS:
            ids = [self._name_ids[f] for f in functions
                   if f in self._name_ids]
            mask = np.isin(names, ids)
            if count_metric is not None:
                out[count_metric] = int(mask.sum())
            if time_metric is not None:
                # inclusive time of the outermost call only, so a function
                # reached again below itself is not counted twice
                outer = self._outermost(mask, ids)
                out[time_metric] = float(dur[outer].sum())
        out["algebra.solve_distinct"] = len(self.solve_keys)
        out["gls.partition_distinct"] = len(self.partition_keys)
        out.update(self.counters)
        steps, calls = out["kernels.induced_steps"], out["kernels.induced_calls"]
        out["kernels.steps_per_call"] = steps / calls if calls else 0.0
        out["kernels.ns_per_map_step"] = (
            1e9 * out["kernels.induced_s"] / out["kernels.map_steps"]
            if out["kernels.map_steps"] else 0.0)
        out["kernels.ns_per_chain_step"] = (
            1e9 * out["kernels.chain_s"] / out["kernels.chain_steps"]
            if out["kernels.chain_steps"] else 0.0)
        return out

    def _outermost(self, mask, ids):
        """Mask of the spans in `mask` with no ancestor named in `ids`."""
        out = mask.copy()
        for i in np.flatnonzero(mask):
            p = self.span_parent[i]
            while p >= 0:
                if self.span_name[p] in ids:
                    out[i] = False
                    break
                p = self.span_parent[p]
        return out

    def write(self, path):
        """Dump every span as columns: name id, parent index, start, end,
        and the tracer's own time inside the span."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "name": self.span_name.tolist(),
                       "parent": self.span_parent.tolist(),
                       "start": self.span_start.tolist(),
                       "end": self.span_end.tolist(),
                       "hidden": self.span_hidden.tolist()}, fh)
