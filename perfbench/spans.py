"""Span tracing around the public functions of the dkn layer modules.

A :class:`Tracer` wraps every public function defined in the seven layer
modules and rebinds the wrapper wherever a dkn module holds the original
under that name: ``dkn.dkn_fit.tkp``, ``dkn.diagnostics.build_design``,
``dkn.cli.read_dkt`` and the defining module's own global all point at the
same wrapper while the tracer is installed.  Calls made through a module
attribute (``glm.fit_glm``) or through a name imported into another module
both record a span.  Private names stay unwrapped, so their time is the self
time of the public function that called them.

Spans are kept in memory as ``[name, start, end, parent]`` lists, where
``parent`` is the index of the enclosing span or -1.  Nothing inside the
program changes; the spans sit at the boundaries between modules.
"""

import functools
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("tensor_core", "kron_ops", "glm", "dkn_fit", "diagnostics", "harness", "cli")
PACKAGE = "dkn"

# Spans whose subtree is the fit phase that ``dkn_fit.self_s`` is taken over.
FIT_SPANS = ("dkn_fit.fit", "dkn_fit.scan_rank")


def _dkt_mb(tensor):
    """Size of a DKT1 file holding ``tensor``: 4 magic bytes, the order byte,
    8 bytes per extent and 8 per entry (``read_dkt`` rejects any other size).
    Computed, so that tracing adds no file-system call per read."""
    t = np.asarray(tensor)
    return (5 + 8 * t.ndim + 8 * t.size) / 1e6


class Tracer:
    """Install span-recording wrappers on entry, restore the originals on exit."""

    def __init__(self):
        self.spans = []
        self.counts = {"dkn_fit.sweeps": 0, "glm.irls_iters": 0,
                       "tensor_core.read_dkt.mb": 0.0, "tensor_core.write_dkt.mb": 0.0}
        self._stack = []
        self._restore = []

    def __enter__(self):
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()
        return False

    def _wrap(self, name, fn):
        call = fn
        post = None
        if name == "glm.fit_glm":
            call = self._fit_glm_with_info(fn)
        elif name == "dkn_fit.fit":
            def post(args, kwargs, result):
                self.counts["dkn_fit.sweeps"] += result[1].sweeps
        elif name == "tensor_core.read_dkt":
            def post(args, kwargs, result):
                self.counts[name + ".mb"] += _dkt_mb(result)
        elif name == "tensor_core.write_dkt":
            def post(args, kwargs, result):
                self.counts[name + ".mb"] += _dkt_mb(kwargs.get("t", args[1] if len(args) > 1 else None))
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = call(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    def _fit_glm_with_info(self, fn):
        """Call ``fit_glm`` with ``return_info=True`` to count IRLS steps;
        hand back what the caller asked for."""
        signature = inspect.signature(fn)

        def call(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            wanted = bound.arguments.get("return_info", False)
            bound.arguments["return_info"] = True
            beta, info = fn(*bound.args, **bound.kwargs)
            self.counts["glm.irls_iters"] += info["iterations"]
            return (beta, info) if wanted else beta

        return call

    def write(self, path, meta):
        """Write the spans, with times relative to the first span, as JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "columns": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, fh)
            fh.write("\n")


def self_times(spans):
    """Per span: its duration minus the time its direct children cover.

    Calls are sequential, so sibling spans never overlap and the children's
    durations add up to the time they cover.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - c for (_, start, end, _), c in zip(spans, covered)]


def summarize(spans):
    """Calls, total and self time per function; self time per layer; and the
    ``dkn_fit`` self time inside fit/scan_rank subtrees with the fit wall time."""
    own = self_times(spans)
    per_fn = {}
    per_layer = {layer: 0.0 for layer in LAYERS}
    in_fit = [False] * len(spans)
    fit_self = 0.0
    fit_wall = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        calls, total, self_s = per_fn.get(name, (0, 0.0, 0.0))
        per_fn[name] = (calls + 1, total + (end - start), self_s + own[i])
        layer = name.split(".", 1)[0]
        per_layer[layer] += own[i]
        outer = parent >= 0 and in_fit[parent]
        in_fit[i] = outer or name in FIT_SPANS
        if in_fit[i] and layer == "dkn_fit":
            fit_self += own[i]
        if in_fit[i] and not outer:
            fit_wall += end - start
    return per_fn, per_layer, fit_self, fit_wall
