"""Spans and call counts recorded from outside the program.

The tracer replaces functions of the u4codes modules by wrappers, in every
namespace that holds them: a name bound with `from .x import f` is looked
up in the importing module, so both bindings are replaced.  `uninstall`
puts every original back; untraced runs never call `install`.

A span wrapper records, per name, the calls, the inclusive time (outermost
instance only, so recursion is not counted twice) and the self time
(duration minus the time of the spans it directly caused), and per
(parent span, name) edge the calls and inclusive time.  A counter wrapper
only counts calls; it is used for the arithmetic kernels (the field's
methods and the KERNELS below), which run hundreds of thousands of times
per code, so that timing each call would cost more than the call.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# Layer names, in pipeline order; each is a module of the u4codes package.
LAYERS = ("field", "poly", "factor", "decomposition", "chainring", "codes",
          "oracle", "cli")

# Field methods whose calls are counted (not timed).
FIELD_METHODS = ("mul", "check")

# Public module functions that are counted (not timed): the product of two
# ring elements, and the trailing-zero strip after every polynomial operation.
KERNELS = ("chainring.conv4", "poly.normalize")


class Tracer:
    def __init__(self):
        self.stack: list[list] = []               # [name, time in child spans]
        self.spans: dict[str, list] = {}          # name -> [calls, incl_s, self_s]
        self.edges: dict[tuple, list] = {}        # (parent, name) -> [calls, incl_s]
        self.counts: dict[str, int] = {}
        self._undo: list[tuple] = []

    def reset(self) -> None:
        for table in (self.spans, self.edges, self.counts):
            table.clear()

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn, size=None):
        """Wrap fn in a span; size(result), if given, is summed into counts."""
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self._record(name, dt, frame[1])
            if size is not None:
                self.counts[name + ".bytes"] = self.counts.get(name + ".bytes", 0) + size(result)
            return result

        return wrapper

    def _record(self, name: str, dt: float, child_s: float) -> None:
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += dt
        outermost = all(frame[0] != name for frame in self.stack)
        s = self.spans.setdefault(name, [0, 0.0, 0.0])
        s[0] += 1
        s[2] += dt - child_s
        if outermost:
            s[1] += dt
        e = self.edges.setdefault((parent[0] if parent else None, name), [0, 0.0])
        e[0] += 1
        e[1] += dt

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _replace(self, original, wrapped, namespaces) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapped)
                    self._undo.append((ns, attr, original))

    def install(self, extra_spans=(), count_kernels: bool = False) -> None:
        """Wrap every public function of each layer in a span, except KERNELS.

        extra_spans holds (namespace, attribute, span name, size) for
        functions the layers keep private or the benchmark defines itself.
        With count_kernels, KERNELS and the FIELD_METHODS of the field
        class are wrapped in call counters.
        """
        namespaces = [m for name, m in sys.modules.items()
                      if name == "u4codes" or name.startswith("u4codes.")]
        namespaces += [ns for ns, *_ in extra_spans if ns not in namespaces]
        for layer in LAYERS:
            mod = sys.modules[f"u4codes.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                name = f"{layer}.{attr}"
                if name not in KERNELS:
                    self._replace(obj, self.span(name, obj), namespaces)
                elif count_kernels:
                    self._replace(obj, self.counter(name, obj), namespaces)
        for ns, attr, name, size in extra_spans:
            obj = getattr(ns, attr)
            self._replace(obj, self.span(name, obj, size), namespaces)
        if count_kernels:
            gf_class = sys.modules["u4codes.field"].GF
            for attr in FIELD_METHODS:
                obj = vars(gf_class)[attr]
                setattr(gf_class, attr, self.counter(f"field.{attr}", obj))
                self._undo.append((gf_class, attr, obj))

    def uninstall(self) -> None:
        while self._undo:
            ns, attr, original = self._undo.pop()
            setattr(ns, attr, original)

    # -- reading ------------------------------------------------------------

    def incl(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def edge_incl(self, parent: str, name: str) -> float:
        return self.edges.get((parent, name), (0, 0.0))[1]

    def dump(self) -> dict:
        return {
            "spans": {k: {"calls": c, "incl_s": i, "self_s": s}
                      for k, (c, i, s) in sorted(self.spans.items())},
            "edges": [{"parent": p, "name": n, "calls": c, "incl_s": i}
                      for (p, n), (c, i) in sorted(self.edges.items(), key=str)],
            "counts": dict(sorted(self.counts.items())),
        }
