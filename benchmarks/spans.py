"""In-memory spans around calls into psumlint, and their self-time arithmetic.

A span is one timed call: name ("<layer>.<call>"), start, end, the index of
the enclosing span (or -1) and the run id it belongs to. Spans stay in
memory while a run executes and are written out once it ends.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    run: int


class NullTracer:
    """Untraced calls: the same call sites, no records."""

    def span(self, name: str):
        return nullcontext()

    def call(self, name: str, fn, *args):
        return fn(*args)


class Tracer:
    """Records one span per call; `run` tags the spans of one pipeline pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, 0.0, parent, self.run))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.run)

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.run]
                       for s in self.spans], fh)


class MemoryTracer(NullTracer):
    """Peak memory allocated during each call of the measured layers, in
    MiB, by layer. tracemalloc runs only inside those calls, so the other
    layers run at full speed."""

    def __init__(self, layers: frozenset[str]) -> None:
        self.layers = layers
        self.peaks: dict[str, float] = {}

    def call(self, name: str, fn, *args):
        layer = name.split(".", 1)[0]
        if layer not in self.layers:
            return fn(*args)
        tracemalloc.start()
        try:
            result = fn(*args)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        self.peaks[layer] = max(self.peaks.get(layer, 0.0), peak)
        return result


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    result = [s.end - s.start for s in spans]
    for span in spans:
        if span.parent >= 0:
            result[span.parent] -= span.end - span.start
    return result


def totals(spans: list[Span], run: int) -> dict[str, float]:
    """name -> summed self time over the spans of one run."""
    out: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        if span.run == run:
            out[span.name] = out.get(span.name, 0.0) + own
    return out
