"""Span tracing of the qgfourier modules, applied from outside the package.

`Tracer.install` replaces every public function of each traced module by a
wrapper that records one span per call: name, start, end and parent span.
The wrapper is bound wherever the original was: the defining module's
attribute, every ``from .x import y`` binding in the other modules, and
module-level dicts that hold it (such as the CLI's dispatch table).
`Tracer.uninstall` puts every original back.  Spans stay in memory.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field

@dataclass
class Span:
    name: str       # "<layer>.<function>"
    start: float
    end: float
    parent: int     # index of the enclosing span, -1 at the root
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def public_functions(module) -> dict:
    """Functions defined in `module` whose names do not start with "_".

    Generator functions are left out: a span around one would close when the
    generator is created, before any of its work is done.
    """
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
        and not inspect.isgeneratorfunction(obj)
    }


class Tracer:
    """Records spans for calls into the given modules while installed.

    `observers` maps a span name to ``fn(bound_arguments, result) -> dict``;
    the returned counts are stored on the span.
    """

    def __init__(self, modules: dict, bindings: list, observers: dict | None = None):
        self.modules = modules          # layer name -> module whose functions are traced
        self.bindings = bindings        # modules whose namespaces are rebound
        self.observers = observers or {}
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[dict, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        return index

    def _close(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        observe = self.observers.get(name)
        signature = inspect.signature(fn) if observe else None

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[index].counts = observe(bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # -- installing --------------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer is already installed")
        wrapped = {
            fn: self._wrap(f"{layer}.{name}", fn)
            for layer, module in self.modules.items()
            for name, fn in public_functions(module).items()
        }
        for module in self.bindings:
            for key, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._rebind(vars(module), key, wrapped[value])
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dkey, dvalue in list(value.items()):
                        if inspect.isfunction(dvalue) and dvalue in wrapped:
                            self._rebind(value, dkey, wrapped[dvalue])

    def _rebind(self, container: dict, key, replacement):
        self._restore.append((container, key, container[key]))
        container[key] = replacement

    def uninstall(self):
        while self._restore:
            container, key, original = self._restore.pop()
            container[key] = original
        self._stack.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


@dataclass
class Totals:
    """Per-name sums over a span list."""

    self_s: dict = field(default_factory=lambda: defaultdict(float))
    inclusive_s: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    counts: dict = field(default_factory=lambda: defaultdict(float))
    child_counts: dict = field(default_factory=lambda: defaultdict(float))

    @classmethod
    def of(cls, spans: list[Span]) -> "Totals":
        """Sum self time, inclusive time, calls and counts by span name.

        `child_counts` keys counts by "<parent span name>/<count name>", so a
        count recorded on a callee can be attributed to its caller.
        """
        totals = cls()
        for span, own in zip(spans, self_times(spans)):
            totals.self_s[span.name] += own
            totals.inclusive_s[span.name] += span.duration
            totals.calls[span.name] += 1
            for key, value in span.counts.items():
                totals.counts[key] += value
                if span.parent >= 0:
                    totals.child_counts[f"{spans[span.parent].name}/{key}"] += value
        return totals

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(v for k, v in self.calls.items() if k.split(".", 1)[0] == layer)
