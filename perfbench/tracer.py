"""Spans at quadtrace's module boundaries, installed from outside the package.

Each `from .x import f` in a quadtrace module creates a binding of its own in
the importing module.  `install` replaces every such binding of a function
with a wrapper that records one span per call: (name, layer, start, end,
parent).  A module's calls to its own globals are left alone, so the spans
cost is paid only where control crosses from one layer into another.

Imports made inside a function body (`def f(): from .y import g`) read the
source module's attribute at call time, so for those names the attribute of
the source module itself is wrapped, and the wrapper records a span only when
its caller lives in another module.

The `precision` module is not a layer: its helpers are context managers and
conversions, so their cost stays with the caller.  Methods and classes are
not wrapped either; their cost is attributed to the calling layer.
"""

from __future__ import annotations

import array
import ast
import functools
import importlib
import inspect
import sys
import time

LAYERS = (
    "arith",
    "quadforms",
    "lvalues",
    "classnumbers",
    "kloosterman",
    "specialfns",
    "coefficients",
    "traces",
    "modular",
    "report",
)
PACKAGE = "quadtrace"
SERIES_SPANS = frozenset({"kloosterman.plus_zeta_truncated", "kloosterman.plus_zeta_batch"})


class Tracer:
    """In-memory span recorder; spans are only read after the traced call.

    Span i has name `names[name_ids[i]]`, times `starts[i]`..`ends[i]` and
    parent span `parents[i]` (-1 for a call made by the CLI itself).  Flat
    arrays keep millions of spans to a few tens of bytes each.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array.array("H")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("q")
        self.quad_evals = 0
        self._stack: list[int] = []

    def wrap(self, fn, layer: str, skip_globals: dict | None = None):
        name_id = len(self.names)
        self.names.append(f"{layer}.{fn.__name__}")
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack, clock = self._stack, time.perf_counter
        count_evals = layer == "specialfns"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip_globals is not None and sys._getframe(1).f_globals is skip_globals:
                return fn(*args, **kwargs)
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count_evals:
                evaluations = getattr(result, "evaluations", None)
                if isinstance(evaluations, int):
                    self.quad_evals += evaluations
            return result

        return traced

    def layer_of(self, name_id: int) -> str:
        return self.names[name_id].split(".", 1)[0]

    def summary(self, wall: float) -> dict:
        """Self time and calls per layer; `cli` gets what no span covers."""
        count = len(self.starts)
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        inner = [0.0] * count
        root_s = 0.0
        for duration, parent in zip(durations, self.parents):
            if parent >= 0:
                inner[parent] += duration
            else:
                root_s += duration
        by_name_s = [0.0] * len(self.names)
        by_name_calls = [0] * len(self.names)
        for name_id, duration, covered in zip(self.name_ids, durations, inner):
            by_name_s[name_id] += duration - covered
            by_name_calls[name_id] += 1
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        series_calls = 0
        for name_id, name in enumerate(self.names):
            layer = self.layer_of(name_id)
            self_s[layer] += by_name_s[name_id]
            calls[layer] += by_name_calls[name_id]
            # Every span crosses a boundary, so these are calls from outside kloosterman.
            if name in SERIES_SPANS:
                series_calls += by_name_calls[name_id]
        self_s["cli"] = wall - root_s
        return {
            "self_s": self_s,
            "calls": calls,
            "spans": count,
            "quad_evals": self.quad_evals,
            "series_calls": series_calls,
        }

    def write(self, path: str) -> None:
        """One line per span: name, layer, start, end, parent."""
        with open(path, "w") as fh:
            for name_id, start, end, parent in zip(
                self.name_ids, self.starts, self.ends, self.parents
            ):
                name, layer = self.names[name_id], self.layer_of(name_id)
                fh.write(f"{name}\t{layer}\t{start!r}\t{end!r}\t{parent}\n")


def _nested_imports(module) -> list[tuple[str, str]]:
    """(source module, name) for each relative import inside a function body."""
    tree = ast.parse(inspect.getsource(module))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, ast.ImportFrom) and inner.level == 1 and inner.module:
                    found.extend((inner.module, alias.name) for alias in inner.names)
    return found


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", None) or ""
    prefix, _, layer = module.partition(".")
    if prefix == PACKAGE and layer in LAYERS and callable(obj) and not inspect.isclass(obj):
        return layer
    return None


def install(tracer: Tracer) -> None:
    """Wrap every cross-module function binding of quadtrace and its CLI."""
    modules = {
        name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS + ("cli",)
    }
    originals = {name: dict(vars(module)) for name, module in modules.items()}
    for importer, namespace in originals.items():
        for attr, obj in namespace.items():
            layer = _layer_of(obj)
            if layer is not None and layer != importer:
                setattr(modules[importer], attr, tracer.wrap(obj, layer))
    for importer, module in modules.items():
        for source, attr in _nested_imports(module):
            if source not in LAYERS or source == importer:
                continue
            target = modules[source]
            obj = originals[source][attr]
            if getattr(target, attr) is obj:
                setattr(target, attr, tracer.wrap(obj, source, skip_globals=vars(target)))
