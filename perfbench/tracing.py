"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent) plus the id of the request it belongs
to (its root span) and a few attributes. Spans are kept in memory while the
workload runs and written out once at the end, so recording costs one
``perf_counter`` pair and a list append per span.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    request: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects nested spans and named counts for one benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, list[float]] = {}
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        sp = Span(
            id=sid,
            request=parent.request if parent else sid,
            name=name,
            start=0.0,
            end=0.0,
            parent=parent.id if parent else None,
            attrs=attrs,
        )
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float):
        self.counts.setdefault(name, []).append(value)

    def self_seconds(self, seconds: dict[int, float]) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover,
        given each span's duration by id.

        Children of one span run one after another, never overlapping, so
        the covered time is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                covered[sp.parent] += seconds[sp.id]
        return {sp.id: seconds[sp.id] - covered[sp.id] for sp in self.spans}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")
