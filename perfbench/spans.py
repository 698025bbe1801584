"""Spans for the traced run, their self times, and the percentile rule.

A span is opened by the benchmark around one call into a folkrec layer.
Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator, List, Optional, Sequence


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one run; the innermost open span is the parent."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record = Span(len(self.spans), self._open[-1] if self._open else None, name, time.perf_counter())
        self.spans.append(record)
        self._open.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps({"run": self.run_id, **asdict(record)}) + "\n")


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    ``Tracer`` nests spans as a stack, so children are disjoint and lie
    inside their parent, and a span's id is its position in the list. The
    result is index-aligned with ``spans``.
    """
    out = [record.duration for record in spans]
    for record in spans:
        if record.parent is not None:
            out[record.parent] -= record.duration
    return out


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the q-th percentile among n samples."""
    return max(1, math.ceil(round(q * n / 100, 9)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), q) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the q-th percentile's rank."""
    return n - _rank(n, q)

