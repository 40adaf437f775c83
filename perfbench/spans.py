"""In-memory spans and their self-time summary.

A span records a name, start and end (perf_counter seconds of the worker
that made it), the id of its parent span and the operation it serves.
Spans stay in memory while a worker runs and are handed back with its
result; the benchmark writes all of them out when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Collects spans; with ``enabled`` false every span is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        record = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": op,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
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


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time summed by span name: each span's duration minus the part
    of it that its children cover.  Span ids are local to one worker, so
    ``spans`` must come from a single worker."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += (s["end"] - s["start"]) - _covered(children[s["id"]])
    return dict(out)
