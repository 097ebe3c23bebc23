"""Call timing and span recording for the benchmark.

Every call the benchmark makes into a library layer goes through
``Tracer.call``, which times it and turns an exception into a failed
``Outcome``.  With tracing on, the tracer also keeps one span per call and
one root span per benchmark operation; spans stay in memory until the run
ends and ``dump`` writes them out.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    op: int
    layer: str
    name: str
    start: float
    end: float


@dataclass
class Outcome:
    """Result of one timed call: the value, or the exception it raised."""

    value: Any
    error: Exception | None
    seconds: float

    @property
    def ok(self) -> bool:
        return self.error is None


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = 0

    def _next_id(self) -> int:
        return len(self.spans) + len(self._stack)

    @contextmanager
    def op(self, kind: str):
        """Root span of one benchmark operation; calls inside share its op id."""
        self._op += 1
        if not self.enabled:
            yield self._op
            return
        span_id = self._next_id()
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield self._op
        finally:
            end = time.perf_counter()
            self._stack.pop()
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(span_id, parent, self._op, "bench", kind, start, end))

    def call(self, layer: str, name: str, fn, *args, **kwargs) -> Outcome:
        start = time.perf_counter()
        try:
            value, error = fn(*args, **kwargs), None
        except Exception as exc:  # a failed op is counted, never fatal
            value, error = None, exc
        end = time.perf_counter()
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            self.spans.append(
                Span(self._next_id(), parent, self._op, layer, name, start, end))
        return Outcome(value, error, end - start)

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span time not covered by that span's children."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.layer] += (s.end - s.start) - covered[s.id]
        return dict(out)

    def dump(self, path, meta: dict) -> None:
        doc = {"meta": meta, "spans": [s._asdict() for s in self.spans]}
        with open(path, "w") as fh:
            json.dump(doc, fh)
