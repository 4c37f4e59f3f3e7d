"""Spans around the calls into each gptwb layer, recorded from outside.

``Tracer.install`` rebinds every public function of a gptwb module, in every
gptwb module that binds it (so ``lp_solve`` as bound in ``postprocess`` and in
``communication`` alike), to a wrapper that records a span: layer, function,
start, end and parent.  ``StateSpace`` methods are wrapped on the class.
Spans stay in memory until ``write``.  A layer's self time is its spans'
durations minus the time their direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter_ns

LAYERS = {
    "gptwb.numerics.lp": "lp",
    "gptwb.numerics.linalg": "linalg",
    "gptwb.spaces": "spaces",
    "gptwb.observables": "observables",
    "gptwb.postprocess": "postprocess",
    "gptwb.simulation": "simulation",
    "gptwb.compatibility": "compatibility",
    "gptwb.communication": "communication",
    "gptwb.cli": "cli",
}
BINDING_MODULES = ("gptwb", "gptwb.numerics", *LAYERS)
# ``dot`` runs inside every loop of every layer; a span per call would cost
# more than the work it times, so it stays unwrapped and counts as its caller.
UNWRAPPED = {"dot"}
SPACE_METHODS = ("dual_rays", "extreme_effects", "is_valid_effect", "contains_state",
                 "effect_norm", "bloch", "effect_from_bloch", "vertex_index_of")
DECISION = "decision"     # root span of one decision
SETUP = "setup"           # root span of the workload's set-up


class Tracer:
    def __init__(self):
        # one entry per span: [layer, function, start_ns, end_ns, parent, excluded_ns]
        self.spans: list = []
        self.stack: list = []
        self.lp_sizes: list = []    # (rows, cols, nonzeros) per LP posed in a decision
        self._restore: list = []

    # ---------------------------------------------------------- recording
    def open(self, layer: str, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer, name, perf_counter_ns(), 0, parent, 0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, layer: str, fn):
        name = fn.__name__
        tracer = self

        if layer == "lp":
            def wrapper(problem, *args, **kwargs):
                if tracer.stack and tracer.spans[tracer.stack[0]][0] == DECISION:
                    t0 = perf_counter_ns()
                    tracer.lp_sizes.append(_lp_size(problem))
                    # size counting is tracer work, not the caller's
                    tracer.spans[tracer.stack[-1]][5] += perf_counter_ns() - t0
                idx = tracer.open(layer, name)
                try:
                    return fn(problem, *args, **kwargs)
                finally:
                    tracer.close(idx)
        else:
            def wrapper(*args, **kwargs):
                idx = tracer.open(layer, name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap the public functions of every layer where they are bound."""
        wrappers: dict = {}
        for modname in BINDING_MODULES:
            mod = importlib.import_module(modname)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or attr in UNWRAPPED or not inspect.isfunction(obj):
                    continue
                layer = LAYERS.get(obj.__module__)
                if layer is None:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self.wrap(layer, obj)
                self._restore.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
        space_cls = importlib.import_module("gptwb.spaces").StateSpace
        for attr in SPACE_METHODS:
            fn = getattr(space_cls, attr)
            self._restore.append((space_cls, attr, fn))
            setattr(space_cls, attr, self.wrap("spaces", fn))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # ----------------------------------------------------------- analysis
    def summary(self, root_layer: str) -> dict:
        """Per layer, over the span trees whose root span is of ``root_layer``:
        calls, busy time (spans with no ancestor of the same layer), self time
        (minus direct children and tracer work), LP solves below the layer's
        spans, and the roots that reached the layer."""
        spans = self.spans
        bit = {layer: 1 << k for k, layer in enumerate(sorted({s[0] for s in spans}))}
        roots, above = [], []   # root index and ancestor-layer bitmask per span
        child = [0] * len(spans)
        for i, (layer, _, t0, t1, parent, _) in enumerate(spans):
            if parent < 0:
                roots.append(i)
                above.append(0)
            else:
                roots.append(roots[parent])
                above.append(above[parent] | bit[spans[parent][0]])
                child[parent] += t1 - t0
        out: dict = {}

        def stats(layer):
            return out.setdefault(layer, {"calls": 0, "busy_ns": 0, "self_ns": 0,
                                          "lps_below": 0, "roots": set()})

        for i, (layer, _, t0, t1, _, excl) in enumerate(spans):
            if spans[roots[i]][0] != root_layer:
                continue
            st = stats(layer)
            st["calls"] += 1
            st["self_ns"] += (t1 - t0) - child[i] - excl
            st["roots"].add(roots[i])
            if not above[i] & bit[layer]:
                st["busy_ns"] += t1 - t0
            if layer == "lp":
                for other, b in bit.items():
                    if above[i] & b:
                        stats(other)["lps_below"] += 1
        return out

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["layer", "function", "start_ns", "end_ns", "parent",
                                  "tracer_ns"],
                       "spans": self.spans, **extra}, fh)


def _lp_size(problem) -> tuple[int, int, int]:
    rows = list(problem.eq) + list(problem.ge)
    nonzeros = sum(1 for row, _ in rows for v in row if v != 0)
    return len(rows), problem.n, nonzeros
