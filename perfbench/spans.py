"""In-memory spans recorded around calls into qcorr, and what they derive.

A span has a name (`<layer>.<function>`), start, end, parent span and pass
id.  Spans are kept in a list and written out once, when the run ends.
With recording off the tracer only counts operations, so untraced passes
pay one attribute increment per call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Counts operations; with `record`, also records one span per call."""

    def __init__(self, record: bool):
        self.record = record
        self.attempted = 0
        self.pass_id = 0
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """One operation: a public call into qcorr or one CLI command."""
        self.attempted += 1
        if not self.record:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str):
        if not self.record:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.pass_id)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n", encoding="utf-8")


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """A span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [(max(lo, s.start), min(hi, s.end)) for lo, hi in children.get(s.id, [])]
        out[s.id] = (s.end - s.start) - _union_length([c for c in clipped if c[1] > c[0]])
    return out


def per_pass(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per pass: total time per span name, and busy and self time per layer.

    Keys are `<name>.s`, `<name>.calls`, `<layer>.busy_s` (the union of the layer's spans,
    so nested spans of one layer count once) and `<layer>.self_s`.
    """
    selfs = self_times(spans)
    out: dict[int, dict[str, float]] = {}
    intervals: dict[tuple[int, str], list[tuple[float, float]]] = {}
    for s in spans:
        row = out.setdefault(s.pass_id, {})
        row[f"{s.name}.s"] = row.get(f"{s.name}.s", 0.0) + (s.end - s.start)
        row[f"{s.name}.calls"] = row.get(f"{s.name}.calls", 0) + 1
        row[f"{s.layer}.self_s"] = row.get(f"{s.layer}.self_s", 0.0) + selfs[s.id]
        intervals.setdefault((s.pass_id, s.layer), []).append((s.start, s.end))
    for (pass_id, layer), ivs in intervals.items():
        out[pass_id][f"{layer}.busy_s"] = _union_length(ivs)
    return out

