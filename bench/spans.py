"""In-memory spans for the traced run, and the arithmetic over them.

A span is one timed call at a layer boundary: name, start, end and the span
that was open when it began.  Spans are kept in memory and written out once,
when the traced run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float | None = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans and named counts."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._open = []
        self.spans = []
        self.counts = {}

    @contextmanager
    def span(self, name):
        parent = self._open[-1].id if self._open else None
        record = Span(len(self.spans), name, parent, self._clock())
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record.end = self._clock()
            self._open.pop()

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def to_json(self):
        return {"spans": [asdict(s) for s in self.spans], "counts": self.counts}


def spans_from_json(rows):
    return [Span(**row) for row in rows]


def child_time(span, spans):
    """Summed duration of the span's direct children.

    The span's self time is its duration minus this.  In a single-threaded
    trace the children of one span never overlap.
    """
    return sum(c.duration for c in spans if c.parent == span.id)


def totals_by_name(spans):
    """Summed duration per span name."""
    out = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.duration
    return out
