"""In-memory spans for the traced in-process run, and the self-time arithmetic.

A span has a name, a start, an end, its parent span and the run id. Spans are
kept in memory and written out as JSON lines when the run ends. A layer is
the part of a span name before the first dot (``corpus.filter`` belongs to
``corpus``); its self time is the sum, over its spans, of each span's
duration minus the part that the span's children cover.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    run_id: str
    peak_bytes: int | None = None  # memory mode, leaf spans only: peak above the start

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Collects spans; with ``memory=True`` each leaf span also gets its own
    memory: the tracemalloc peak reached inside it minus the memory traced
    when it began, so data that earlier calls still hold does not count
    (tracemalloc must be running)."""

    def __init__(self, run_id: str, memory: bool = False):
        self.run_id = run_id
        self.memory = memory
        self.spans: list[Span] = []
        self._stack: list[tuple[int, int]] = []  # (span id, children seen)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1] = (parent, self._stack[-1][1] + 1)
        span_id = len(self.spans)
        self.spans.append(Span(span_id, parent, name, 0, 0, self.run_id))
        self._stack.append((span_id, 0))
        if self.memory:
            tracemalloc.reset_peak()
            baseline = tracemalloc.get_traced_memory()[0]
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            _, children = self._stack.pop()
            record = self.spans[span_id]
            record.start_ns, record.end_ns = start, end
            if self.memory and children == 0:
                record.peak_bytes = tracemalloc.get_traced_memory()[1] - baseline

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Add a finished child span of the current span (for wrapped calls)."""
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(Span(len(self.spans), parent, name, start_ns, end_ns, self.run_id))


class NullTracer:
    """Stands in for a tracer in untraced runs; records nothing."""

    memory = False

    def span(self, name: str):
        return nullcontext()


def write_spans(spans: list[Span], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s.__dict__) + "\n")


def _covered_ns(intervals: list[tuple[int, int]]) -> int:
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time per layer, over every span whose layer is not ``cmd``/``pass``."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    out: dict[str, float] = {}
    for s in spans:
        layer = layer_of(s.name)
        if layer in ("pass", "cmd"):
            continue
        own = (s.end_ns - s.start_ns) - _covered_ns(children.get(s.span_id, []))
        out[layer] = out.get(layer, 0.0) + own / 1e9
    return out


def uncovered_seconds(spans: list[Span]) -> float:
    """Time inside the root span that no layer span covers."""
    root = next(s for s in spans if s.parent is None)
    layer_spans = [(s.start_ns, s.end_ns) for s in spans if layer_of(s.name) not in ("pass", "cmd")]
    return ((root.end_ns - root.start_ns) - _covered_ns(layer_spans)) / 1e9


def total_seconds(spans: list[Span], name: str) -> float:
    return sum(s.seconds for s in spans if s.name == name)
