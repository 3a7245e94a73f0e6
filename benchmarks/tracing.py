"""Span tracing from outside the program.

A :class:`Tracer` replaces module attributes of the sessiondedup package
with wrappers that record one span per call: name, start, end, parent
span and the operation (one batch or one CLI command) it belongs to.
Nothing under ``src/`` knows about it; the wrappers are installed for
one traced run and removed afterwards.

Spans stay in memory until :meth:`Tracer.write` saves them as JSON lines.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

_now = time.perf_counter


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "size")

    def __init__(self, id, parent, op, name, start, size):
        self.id = id
        self.parent = parent
        self.op = op
        self.name = name
        self.start = start
        self.end = start
        self.size = size

    @property
    def dur(self) -> float:
        return self.end - self.start


class _TracedIterator:
    """Iterator proxy that records a span around every ``next()``."""

    def __init__(self, tracer: "Tracer", name: str, inner, size):
        self._tracer = tracer
        self._name = name
        self._inner = inner
        self._size = size

    def __iter__(self):
        return self

    def __next__(self):
        with self._tracer.span(self._name) as s:
            item = next(self._inner)
            if self._size:
                s.size = self._size(item)
            return item


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: str | None = None
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, size: int | None = None):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, self.op, name, _now(), size)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = _now()
            self._stack.pop()

    @contextmanager
    def operation(self, op: str, name: str):
        """Root span of one operation; every span under it carries ``op``."""
        prev, self.op = self.op, op
        try:
            with self.span(name) as s:
                yield s
        finally:
            self.op = prev

    def wrap(self, module, attr: str, name: str, size=None) -> None:
        """Replace ``module.attr`` with a traced call; ``size(*args)``
        optionally attaches a byte count to each span."""
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name, size(*args) if size else None):
                return inner(*args, **kwargs)

        self._patch(module, attr, traced)

    def wrap_iter(self, module, attr: str, name: str, size=None) -> None:
        """Replace a generator function so each ``next()`` is one span;
        ``size(item)`` optionally attaches a byte count to each span."""
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            return _TracedIterator(self, name, inner(*args, **kwargs), size)

        self._patch(module, attr, traced)

    def _patch(self, module, attr: str, new) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def restore(self) -> None:
        while self._patched:
            module, attr, old = self._patched.pop()
            setattr(module, attr, old)

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            for s in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "parent": s.parent,
                            "op": s.op,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "size": s.size,
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another (the program is single
    threaded), so their durations add without overlap.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.dur
    return [s.dur - c for s, c in zip(spans, child)]


def totals(spans: list[Span], selfs: list[float], keep) -> dict:
    """Per span name: total time, total self time, calls and size for
    the spans ``keep(span)`` accepts."""
    out: dict[str, dict] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "size": 0})
    for s, own in zip(spans, selfs):
        if not keep(s):
            continue
        t = out[s.name]
        t["s"] += s.dur
        t["self_s"] += own
        t["calls"] += 1
        t["size"] += s.size or 0
    return out


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of one traced call over an untraced one, in seconds."""
    ns = SimpleNamespace(f=lambda: None)
    bare = ns.f
    t0 = _now()
    for _ in range(calls):
        bare()
    plain = _now() - t0
    tracer = Tracer()
    tracer.wrap(ns, "f", "calibrate.f")
    traced = ns.f
    t0 = _now()
    for _ in range(calls):
        traced()
    cost = _now() - t0
    tracer.restore()
    return max(cost - plain, 0.0) / calls
