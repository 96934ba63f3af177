"""In-memory spans for the traced benchmark run, and their reduction.

A span is ``[id, name, start, end, parent, op, calls]``: ``calls`` is the
number of library calls the span covers (a batch of replayed calls is one
span), ``op`` is the operation index (negative for probe operations, which
only fill in per-call costs of layers the workload itself never calls).
Spans stay in memory until the run ends and are written out once.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_clock = time.perf_counter


class _SpanScope:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: list):
        self.tracer = tracer
        self.record = record

    def __enter__(self) -> list:
        self.tracer._stack.append(self.record[0])
        self.record[2] = _clock()
        return self.record

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.record[3] = _clock()
        tracer = self.tracer
        tracer._stack.pop()
        if exc_type is not None and tracer.error_span is None:
            tracer.error_span = self.record[1]
        tracer.spans.append(self.record)
        return False


class Tracer:
    """Records spans and per-op counters of the operations it is handed."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self.error_span: str | None = None
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str, calls: int = 1, parent: list | None = None) -> _SpanScope:
        """Scope one layer call (or a batch of ``calls`` calls).

        ``parent`` defaults to the innermost open span; replays pass the span
        of the call whose internals they re-issue.
        """
        if parent is not None:
            parent_id = parent[0]
        else:
            parent_id = self._stack[-1] if self._stack else None
        self._next_id += 1
        return _SpanScope(self, [self._next_id, name, 0.0, 0.0, parent_id, self.op, calls])

    def count(self, name: str, n: float) -> None:
        """Add to a per-op counter; probe operations are not counted."""
        if self.op >= 0:
            self.counts[name] += n

    def dump(self, path) -> None:
        fields = ["id", "name", "start", "end", "parent", "op", "calls"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh, separators=(",", ":"))


class _NullScope:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SCOPE = _NullScope()


class NullTracer:
    """Tracing off: every span is a shared no-op scope."""

    enabled = False
    op = 0
    error_span = None

    def span(self, name: str, calls: int = 1, parent: list | None = None) -> _NullScope:
        return _NULL_SCOPE

    def count(self, name: str, n: float) -> None:
        pass


def span_stats(spans: list[list]) -> dict[str, list[float]]:
    """Per span name: [total seconds, calls, self seconds].

    A span's self time is its duration minus its children's durations. For a
    child nested in time this is the part of the interval the child covers;
    for a replayed child it is the time the replayed calls took.
    """
    child_time: dict[int, float] = defaultdict(float)
    for sid, _name, start, end, parent, _op, _calls in spans:
        if parent is not None:
            child_time[parent] += end - start
    stats: dict[str, list[float]] = {}
    for sid, name, start, end, _parent, _op, calls in spans:
        entry = stats.setdefault(name, [0.0, 0, 0.0])
        entry[0] += end - start
        entry[1] += calls
        entry[2] += end - start - child_time[sid]
    return stats


def layer_self_times(stats: dict[str, list[float]]) -> dict[str, float]:
    """Self seconds summed per layer (the span name up to its first dot)."""
    layers: dict[str, float] = defaultdict(float)
    for name, (_total, _calls, self_s) in stats.items():
        layers[name.split(".", 1)[0]] += self_s
    return dict(sorted(layers.items()))
