"""In-memory spans recorded by the benchmark around its calls into a layer.

The benchmark measures layers from outside: every call it makes into a
module's public function (a ladder rung, ``run_app``, ``replay_overlap``,
``ResultCache.get``/``put``, ``ServiceClient.submit`` ...) is wrapped in
``spans.span(name, layer)``.  Nothing under ``src/`` is touched; spans
inside the program are a later change.

Spans stay in a list until the run ends and are then written once, in
Chrome ``trace_event`` form (open in ``chrome://tracing`` or Perfetto).
A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
import typing


class Span(typing.NamedTuple):
    name: str
    layer: str
    start: float  # seconds on the perf_counter clock
    end: float
    parent: int  # index into Spans.records, -1 for a root
    job: int  # job id the span belongs to, -1 outside any job
    track: int  # 1 = timed by the benchmark, 2 = from server timestamps
    args: "dict[str, object]"  # counts taken at the same boundary


_NULL = contextlib.nullcontext()


class Spans:
    """Span recorder; ``enabled=False`` makes every call a no-op."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: "list[Span]" = []
        self._stack: "list[int]" = []
        #: Job id stamped on spans opened from now on (set by the job loop).
        self.job = -1

    def span(self, name: str, layer: str, **args: object):
        """Context manager timing one call into ``layer``."""
        if not self.enabled:
            return _NULL
        return self._record(name, layer, args)

    @contextlib.contextmanager
    def _record(self, name: str, layer: str, args: "dict[str, object]"):
        index = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        start = time.perf_counter()
        # Reserve the slot now so children opened inside get the right parent.
        self.records.append(Span(name, layer, start, start, parent, self.job,
                                 1, args))
        self._stack.append(index)
        try:
            yield args
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records[index] = Span(name, layer, start, end, parent,
                                       self.job, 1, args)

    def add(self, name: str, layer: str, start: float, end: float,
            **args: object) -> None:
        """Record a span timed elsewhere (e.g. from server timestamps).

        ``start``/``end`` must already be on the perf_counter clock.  The
        span becomes a child of whatever span is open and is clipped to
        begin no earlier than it (the two clocks are read by different
        processes, so a microsecond of skew is possible).
        """
        if not self.enabled:
            return
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0:
            start = max(start, self.records[parent].start)
        self.records.append(Span(name, layer, start, max(start, end), parent,
                                 self.job, 2, args))

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> "list[float]":
        """Self time of every span, in seconds, indexed like ``records``."""
        children: "dict[int, list[tuple[float, float]]]" = {}
        for rec in self.records:
            if rec.parent >= 0:
                children.setdefault(rec.parent, []).append((rec.start, rec.end))
        out = []
        for index, rec in enumerate(self.records):
            covered = 0.0
            cursor = rec.start
            for lo, hi in sorted(children.get(index, ())):
                lo = max(lo, cursor)
                hi = min(hi, rec.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append((rec.end - rec.start) - covered)
        return out

    def self_time_by_layer(self) -> "dict[str, float]":
        """Seconds of self time per layer, summed over all spans."""
        totals: "dict[str, float]" = {}
        for rec, own in zip(self.records, self.self_times()):
            totals[rec.layer] = totals.get(rec.layer, 0.0) + own
        return totals

    # -- export ------------------------------------------------------------
    def to_chrome(self, process: str) -> "dict[str, object]":
        """The spans as a Chrome ``trace_event`` document."""
        origin = min((r.start for r in self.records), default=0.0)
        events: "list[dict[str, object]]" = [
            {"ph": "M", "pid": 1, "tid": 1, "name": "process_name",
             "args": {"name": process}},
            {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
             "args": {"name": "bench"}},
            {"ph": "M", "pid": 1, "tid": 2, "name": "thread_name",
             "args": {"name": "server-reported"}},
        ]
        for index, (rec, own) in enumerate(zip(self.records,
                                               self.self_times())):
            events.append({
                "ph": "X", "pid": 1, "tid": rec.track,
                "name": rec.name, "cat": rec.layer,
                "ts": (rec.start - origin) * 1e6,
                "dur": (rec.end - rec.start) * 1e6,
                "args": dict(rec.args, id=index, parent=rec.parent,
                             job=rec.job, self_us=own * 1e6),
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str, process: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome(process), fh)
            fh.write("\n")
