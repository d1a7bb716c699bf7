"""Outside-in tracer: wraps galekit's public functions from the benchmark's
own files, so the library itself carries no instrumentation.

``install`` replaces every public module-level function of the layer
modules, in every galekit module namespace that binds it (``from .x import
y`` re-binds names, e.g. ``hnf`` lives in ``normal_forms``, ``lattices``,
``toric`` and the package), and ``Mat.__init__`` through the class.  Calls
that stay inside one layer are only counted; a call that enters a layer
from another layer (or from the benchmark) opens a span.  Spans live in
flat in-memory arrays and are written out once, by ``write``.
``uninstall`` puts every original object back.  The untraced run never
imports this module.

Time spent in methods of library classes other than ``Mat.__init__`` (for
example ``Mat.rank`` or ``Lattice.from_rows``) counts toward the layer that
called them.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

LAYERS = ("matrix", "normal_forms", "lattices", "gale", "fw", "fans", "toric")
BENCH = len(LAYERS)  # the benchmark's own code, outside every layer

# per-layer metric name -> counted function, as "<layer>.<function>"
NAMED_CALLS = {
    "matrix.mat_new": "matrix.Mat.__init__",
    "matrix.solve_calls": "matrix.solve",
    "normal_forms.hnf_calls": "normal_forms.hnf",
    "normal_forms.snf_calls": "normal_forms.snf",
    "normal_forms.left_kernel_rows_calls": "normal_forms.left_kernel_rows",
    "lattices.intersection_calls": "lattices.lattice_intersection",
    "gale.gale_dual_calls": "gale.gale_dual",
    "fw.classify_f_calls": "fw.classify_f",
    "fw.classify_w_calls": "fw.classify_w",
    "fw.is_f_complete_calls": "fw.is_f_complete",
    "fans.is_fan_calls": "fans.is_fan",
    "fans.enumerate_SF_calls": "fans.enumerate_SF",
    "toric.full_report_calls": "toric.full_report",
}


def _layer_of(fn) -> "int | None":
    parts = getattr(fn, "__module__", "").split(".")
    if len(parts) == 2 and parts[0] == "galekit" and parts[1] in LAYERS:
        return LAYERS.index(parts[1])
    return None


class Tracer:
    def __init__(self):
        self.span_layer = array("b")
        self.span_parent = array("l")   # index of the enclosing span, -1 at top
        self.span_item = array("l")     # corpus item the span belongs to
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict = {}           # "<layer>.<function>" -> every call
        self.entries = [0] * len(LAYERS)  # calls entering a layer from outside it
        self.fans_found = 0
        self.feasible_calls = 0
        self.feasible_true = 0
        self.item = -1
        self._state = [BENCH, -1]       # current layer, current span
        self._patches: list = []

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        wrappers: dict = {}
        prefix = package.__name__ + "."
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package.__name__ or name.startswith(prefix)]
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = _layer_of(obj)
                if layer is None:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, layer, f"{LAYERS[layer]}.{obj.__name__}")
                self._patches.append((mod, name, obj))
                setattr(mod, name, wrappers[obj])
        mat = package.matrix.Mat
        init = mat.__init__
        self._patches.append((mat, "__init__", init))
        mat.__init__ = self._wrap(init, LAYERS.index("matrix"), "matrix.Mat.__init__")

    def uninstall(self) -> None:
        while self._patches:
            target, name, original = self._patches.pop()
            setattr(target, name, original)

    def _observer(self, key: str):
        if key == "fans.enumerate_SF":
            def observe(result):
                self.fans_found += len(result)
        elif key in ("fw.is_f_complete", "fw.is_w_positive"):
            def observe(result):
                self.feasible_calls += 1
                self.feasible_true += bool(result[0] if isinstance(result, tuple) else result)
        else:
            return None
        return observe

    def _wrap(self, fn, layer: int, key: str):
        calls = self.calls
        calls[key] = 0
        state, entries = self._state, self.entries
        s_layer, s_parent, s_item = self.span_layer, self.span_parent, self.span_item
        s_start, s_end = self.span_start, self.span_end
        observe = self._observer(key)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if state[0] == layer:
                result = fn(*args, **kwargs)
            else:
                entries[layer] += 1
                idx = len(s_start)
                s_layer.append(layer)
                s_parent.append(state[1])
                s_item.append(tracer.item)
                s_end.append(0.0)
                outer = state[0], state[1]
                state[0], state[1] = layer, idx
                s_start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    s_end[idx] = clock()
                    state[0], state[1] = outer
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results -------------------------------------------------------------

    def self_seconds(self) -> list:
        """Per layer: span time minus the time covered by child spans."""
        own = [0.0] * len(LAYERS)
        for i in range(len(self.span_start)):
            dur = self.span_end[i] - self.span_start[i]
            own[self.span_layer[i]] += dur
            parent = self.span_parent[i]
            if parent >= 0:
                own[self.span_layer[parent]] -= dur
        return own

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far."""
        out = {}
        own = self.self_seconds()
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = (self.entries[i], "count")
            out[f"{layer}.self_s"] = (own[i], "s")
        for name, key in NAMED_CALLS.items():
            out[name] = (self.calls.get(key, 0), "count")
        out["fans.fans_found"] = (self.fans_found, "count")
        share = self.feasible_true / self.feasible_calls if self.feasible_calls else 0.0
        out["fw.feasible_share"] = (share, "ratio")
        out["fw.feasible_base"] = (self.feasible_calls, "count")
        return out

    def write(self, path) -> None:
        """One JSON header line, then the raw span arrays in header order."""
        arrays = [("layer", self.span_layer), ("parent", self.span_parent),
                  ("item", self.span_item), ("start", self.span_start),
                  ("end", self.span_end)]
        header = {"layers": list(LAYERS) + ["bench"], "spans": len(self.span_start),
                  "byteorder": sys.byteorder,
                  "arrays": [[name, arr.typecode, arr.itemsize] for name, arr in arrays]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in arrays:
                arr.tofile(fh)
