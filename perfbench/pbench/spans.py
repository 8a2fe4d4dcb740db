"""In-memory span recording around calls into the program's layers.

A :class:`Recorder` replaces a public function or method with a wrapper
that records one span per call: name, start, end, the span that was
open on the same thread when it started (its parent), and an optional
trace id.  Spans stay in memory until :meth:`Recorder.dump` writes
them out, normally once when the process exits.  Times come from
``time.perf_counter`` (the system-wide monotonic clock on Linux), so
spans of different processes share one time line.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True, slots=True)
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float
    trace: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and counters for one process."""

    def __init__(self, role: str) -> None:
        self.role = role
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def begin(self) -> tuple[int, int, float]:
        span_id = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def finish(self, token: tuple[int, int, float], name: str, trace: str = "") -> None:
        end = time.perf_counter()
        span_id, parent, start = token
        self._stack().pop()
        self.spans.append(Span(span_id, parent, name, start, end, trace))

    def add(self, span_id: int, parent: int, name: str, start: float, end: float,
            trace: str = "") -> None:
        """Record a span whose start and end were observed elsewhere."""
        self.spans.append(Span(span_id, parent, name, start, end, trace))

    def new_id(self) -> int:
        return next(self._ids)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._count_lock:
            self.counters[name] += amount

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a class or module member) with a
        wrapper recording one span per call."""
        function = getattr(owner, attr)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            token = self.begin()
            try:
                return function(*args, **kwargs)
            finally:
                self.finish(token, name)

        setattr(owner, attr, wrapper)

    # -- output --------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "role": self.role,
            "spans": [[s.id, s.parent, s.name, s.start, s.end, s.trace] for s in self.spans],
            "counters": dict(self.counters),
        }

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.to_dict()))
        tmp.replace(path)


def load(path: Path) -> tuple[str, list[Span], dict[str, float]]:
    data = json.loads(path.read_text())
    spans = [Span(int(a), int(b), c, float(d), float(e), f) for a, b, c, d, e, f in data["spans"]]
    return data["role"], spans, data["counters"]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its children cover.

    Children are the spans naming it as parent; overlapping children
    are merged first, so concurrent child work is not subtracted twice.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = span.duration - covered
    return out


class Summary:
    """Per-name totals over a set of spans."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        for span in spans:
            self.by_name[span.name].append(span)
        self._self = self_times(spans)

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def total_s(self, name: str) -> float:
        return sum(s.duration for s in self.by_name.get(name, ()))

    def mean_ms(self, name: str) -> float:
        spans = self.by_name.get(name, ())
        return 1e3 * sum(s.duration for s in spans) / len(spans) if spans else 0.0

    def mean_self_ms(self, name: str) -> float:
        spans = self.by_name.get(name, ())
        return 1e3 * sum(self._self[s.id] for s in spans) / len(spans) if spans else 0.0
