"""Per-layer tracing of cubicwkb by wrapping module bindings from outside.

The tracer replaces every public function of the package's layer modules at
every place it is bound (its own module, the package namespace and each
``from .x import y`` name in sibling modules), plus the ``solve_ivp`` name
bound in ``cubicwkb.monodromy``.  Each call records a span (name, start,
end, parent span, call id); spans stay in memory until the run writes them
out.  Nothing under ``src/`` is changed: removing the tracer restores every
binding it replaced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import namedtuple
from time import perf_counter

LAYERS = (
    "potential", "action", "stokes", "wkb", "bsb",
    "monodromy", "painleve", "export", "cli",
)

# point evaluators called tens of thousands of times per batch; a span each
# would cost more than the work it measures
SKIP = frozenset({"action.alpha_at"})

# foreign callables traced under a layer name: (module, binding) -> span name
FOREIGN = {("monodromy", "solve_ivp"): "monodromy.ode"}

Span = namedtuple("Span", "name start end parent call ok nfev")


def _modules():
    pkg = importlib.import_module("cubicwkb")
    return pkg, {name: importlib.import_module(f"cubicwkb.{name}") for name in LAYERS}


class Tracer:
    """Context manager that wraps the package's public functions.

    ``call`` is the id stamped on every span opened while it is set; the
    benchmark sets it once per ``cli.main`` call and per gate step.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.call = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def _targets(self):
        """(module, binding, span name, original) for every binding to wrap."""
        pkg, layers = _modules()
        defined = {}
        for layer, mod in layers.items():
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and f"{layer}.{attr}" not in SKIP
                ):
                    defined[id(fn)] = f"{layer}.{attr}"
        out = []
        for mod in (pkg, *layers.values()):
            for attr, fn in list(vars(mod).items()):
                name = defined.get(id(fn))
                if name is not None:
                    out.append((mod, attr, name, fn))
        for (layer, attr), name in FOREIGN.items():
            mod = layers[layer]
            if hasattr(mod, attr):
                out.append((mod, attr, name, getattr(mod, attr)))
        return out

    def __enter__(self):
        for mod, attr, name, fn in self._targets():
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)
        return False

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            ok = False
            out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = Span(name, t0, t1, parent, self.call, ok,
                                  getattr(out, "nfev", 0))

        return traced

    # -- aggregation ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def has_ancestor(self, idx: int, layer: str) -> bool:
        prefix = layer + "."
        p = self.spans[idx].parent
        while p >= 0:
            if self.spans[p].name.startswith(prefix):
                return True
            p = self.spans[p].parent
        return False

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, failed (raised), self time and nfev."""
        out: dict[str, dict[str, float]] = {}
        for s, st in zip(self.spans, self.self_times()):
            row = out.setdefault(s.name, {"calls": 0, "failed": 0, "self_s": 0.0, "nfev": 0})
            row["calls"] += 1
            row["failed"] += not s.ok
            row["self_s"] += st
            row["nfev"] += s.nfev
        return out

    def count_under(self, name: str, layer: str) -> int:
        """Calls of span ``name`` made (at any depth) from inside ``layer``."""
        return sum(
            1 for i, s in enumerate(self.spans)
            if s.name == name and self.has_ancestor(i, layer)
        )

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": list(Span._fields), "spans": [list(s) for s in self.spans]}, fh)
