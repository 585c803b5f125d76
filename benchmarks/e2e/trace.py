"""Benchmark-owned span recorder.

Spans wrap only calls made from the benchmark's own files, at the
boundary of each library layer: name, start, end, the span that caused it
and one id per batch or request.  They stay in memory and are written out
once, when the run ends.  A layer's *self time* is its span's duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["Tracer"]


class Tracer:
    """In-memory span list with a stack for nesting on one thread."""

    def __init__(self) -> None:
        #: (name, start_s, end_s, parent index or -1, trace id)
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, trace_id: Optional[int] = None) -> Iterator[int]:
        """Time the body; nested spans become children of this one."""
        parent = self._stack[-1] if self._stack else -1
        if trace_id is None and parent >= 0:
            trace_id = self.spans[parent][4]
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, trace_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def record(
        self, name: str, start: float, end: float,
        parent: int = -1, trace_id: Optional[int] = None,
    ) -> int:
        """Add a span timed by the caller (concurrent asyncio requests)."""
        self.spans.append([name, start, end, parent, trace_id])
        return len(self.spans) - 1

    def totals(self) -> Dict[str, float]:
        """Summed duration per span name, seconds."""
        out: Dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name: duration minus child spans."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            out[name] += (end - start) - covered
        return dict(out)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "columns": ["name", "start_s", "end_s", "parent", "id"],
                    "spans": self.spans,
                    "self_time_s": self.self_times(),
                },
                handle,
            )
