"""Allocation-light host-time spans with cross-process propagation.

The tracing subsystem applies the paper's own discipline to the
framework: you can only characterize where wall-clock goes by stamping
intervals where the time is actually spent.  It follows the
``repro.metrics`` pattern exactly -- an explicit :class:`Tracer` object
passed down through ``tracer=`` parameters, nil by default, so every hot
path stays byte-for-byte identical when tracing is off (the differential
tests in ``tests/test_tracing.py`` hold reports to bit-identity).

Design constraints, in order:

* **Zero cost when absent.**  Every instrumented call site is a single
  ``if tracer is not None`` guard around the span bookkeeping.
* **Allocation-light when present.**  A finished span is one appended
  7-tuple ``(name, category, start, end, span_id, parent_id, args)``;
  the clock is one ``perf_counter`` call rebased onto a wall-clock
  anchor.  No per-span objects survive past ``end()`` except the tuple.
* **Mergeable across processes.**  Host clocks are per-process;
  :meth:`Tracer.now` therefore reports *epoch* seconds derived from a
  ``time.time()`` anchor plus a ``perf_counter`` offset, so spans from a
  service worker thread, a crash-isolated sweep cell, and four shard
  workers all land on one comparable timeline.  A child process adopts
  its parent's trace via a :class:`SpanContext` wire dict (handed over
  with the task it is given -- never via ``Task.args``, which would
  change content-hash cache keys), records its own spans, and ships its payload
  home where :meth:`Tracer.absorb` nests it.

``repro.tracing.merge`` renders the nested payload tree as one Perfetto
``trace_event`` JSON (one pid per process); ``repro.tools.explain``
turns that into a critical-path breakdown.
"""

from __future__ import annotations

import array
import os
import threading
import time
import typing

#: Payload schema version (bump on incompatible layout changes).
PAYLOAD_VERSION = 1

#: Span-record field order inside a payload's ``spans`` list.
SPAN_FIELDS = ("name", "category", "start", "end", "span_id", "parent_id",
               "args")


class SpanRecord(typing.NamedTuple):
    """One finished span, as stored by the tracer (host epoch seconds)."""

    name: str
    category: str
    start: float
    end: float
    span_id: str
    parent_id: "str | None"
    args: "dict | None"


class SpanContext:
    """Serializable identity of one point in a trace: ``(trace, span)``.

    What crosses a process boundary when work is delegated: the child
    builds its own :class:`Tracer` from this context so its spans join
    the parent's trace.  Round-trips exactly through :meth:`to_wire` /
    :meth:`from_wire` (dict, for pickled pipes) and :meth:`to_header` /
    :meth:`from_header` (one string, for HTTP-ish carriers).
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str = "") -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def to_wire(self) -> "dict[str, str]":
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, wire: "dict[str, str]") -> "SpanContext":
        return cls(str(wire["trace_id"]), str(wire.get("span_id", "")))

    def to_header(self) -> str:
        """``trace_id/span_id`` -- ``/`` cannot appear in either part."""
        return f"{self.trace_id}/{self.span_id}"

    @classmethod
    def from_header(cls, header: str) -> "SpanContext":
        trace_id, sep, span_id = header.partition("/")
        if not sep or not trace_id:
            raise ValueError(f"malformed span-context header {header!r}")
        return cls(trace_id, span_id)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SpanContext)
                and other.trace_id == self.trace_id
                and other.span_id == self.span_id)

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id))

    def __repr__(self) -> str:
        return f"SpanContext({self.trace_id!r}, {self.span_id!r})"


class Span:
    """An open span handle: a context manager that records on exit.

    Created by :meth:`Tracer.begin` / :meth:`Tracer.span`; holds only
    scalars.  ``end()`` is idempotent, so a span used both as a context
    manager and ended explicitly records exactly once.
    """

    __slots__ = ("_tracer", "name", "category", "start", "span_id",
                 "parent_id", "args")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 start: float, span_id: str, parent_id: "str | None",
                 args: "dict | None") -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.start = start
        self.span_id = span_id
        self.parent_id = parent_id
        self.args = args

    def annotate(self, **kv: object) -> "Span":
        """Attach key/value details (rendered into the Perfetto args)."""
        if self.args is None:
            self.args = {}
        self.args.update(kv)
        return self

    def end(self) -> None:
        tracer = self._tracer
        if tracer is not None:
            self._tracer = None  # type: ignore[assignment]
            tracer._finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.end()


class Tracer:
    """One process's (or logical component's) span recorder.

    ``process`` names the timeline this tracer's spans render on (one
    Perfetto pid per process name).  ``metrics`` (optional
    :class:`~repro.metrics.MetricsRegistry`) additionally feeds every
    finished span into ``repro_trace_spans_total{category=...}`` and
    ``repro_trace_span_seconds{category=...}``, which is how the service
    dashboard shows live per-stage latency.

    The clock: ``now()`` returns epoch seconds as
    ``anchor_epoch + (perf_counter() - anchor_perf)`` -- monotonic
    *within* the process (sub-microsecond resolution) and comparable
    *across* processes to wall-clock sync accuracy, which is what makes
    the merged multi-process timeline coherent.
    """

    def __init__(self, process: str = "main",
                 trace_id: "str | None" = None,
                 parent: "SpanContext | str | None" = None,
                 metrics: "object | None" = None) -> None:
        self.process = process
        self.trace_id = trace_id if trace_id else os.urandom(8).hex()
        if isinstance(parent, SpanContext):
            parent = parent.span_id
        #: span_id (in the parent process's trace) this tracer hangs off.
        self.parent_span_id: "str | None" = parent or None
        self._anchor_epoch = time.time()
        self._anchor_perf = time.perf_counter()
        #: Finished spans, in end order (:meth:`channel` pairs join them
        #: at :meth:`to_payload` time).
        self.spans: "list[tuple]" = []
        #: Absorbed child-process payloads (dicts), in arrival order.
        self.children: "list[dict]" = []
        self._stack: "list[Span]" = []
        self._seq = 0
        self._metrics = metrics
        self._m_count: "dict[str, object]" = {}
        self._m_secs: "dict[str, object]" = {}
        #: Hot-path (start, end) pair buffers keyed by
        #: (name, category, parent_id); see :meth:`channel`.
        self._channels: "dict[tuple, array.array]" = {}
        self._ch_observed: "dict[tuple, int]" = {}

    # -- clock ---------------------------------------------------------------
    def now(self) -> float:
        """Host time in epoch seconds (perf_counter resolution)."""
        return self._anchor_epoch + (time.perf_counter() - self._anchor_perf)

    # -- recording -----------------------------------------------------------
    def _next_id(self) -> str:
        self._seq += 1
        return f"{self.process}:{self._seq}"

    def begin(self, name: str, category: str = "span",
              **args: object) -> Span:
        """Open a span now; pair with ``.end()`` (or use :meth:`span`)."""
        parent = self._stack[-1].span_id if self._stack else self.parent_span_id
        span = Span(self, name, category, self.now(), self._next_id(),
                    parent, dict(args) if args else None)
        self._stack.append(span)
        return span

    # A with-statement alias: ``with tracer.span("x", "cat"): ...``
    span = begin

    def _finish(self, span: Span) -> None:
        end = self.now()
        # Tolerate out-of-order ends (overlapping explicit begin/end
        # pairs): remove wherever the span sits in the open stack.
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        else:
            try:
                stack.remove(span)
            except ValueError:
                pass
        self.spans.append(SpanRecord(span.name, span.category, span.start,
                                     end, span.span_id, span.parent_id,
                                     span.args))
        if self._metrics is not None:
            self._observe(span.category, end - span.start)

    def add_span(self, name: str, category: str, start: float, end: float,
                 args: "dict | None" = None,
                 parent_id: "str | None" = None) -> str:
        """Record a span retroactively from explicit epoch timestamps.

        For intervals whose start predates the tracer (the HTTP accept
        timestamp) or that were measured without an open handle (the
        tenant-queue wait).  Returns the new span id.
        """
        if parent_id is None:
            parent_id = (self._stack[-1].span_id if self._stack
                         else self.parent_span_id)
        span_id = self._next_id()
        self.spans.append(SpanRecord(name, category, start, end, span_id,
                                     parent_id, args))
        if self._metrics is not None:
            self._observe(category, end - start)
        return span_id

    def channel(self, name: str, category: str) -> "array.array":
        """Preopened append-only buffer for one hot span kind.

        The cheapest recording path there is: the call site keeps the
        returned ``array('d')`` and appends two floats (start, end) per
        span -- no Python objects, no span ids, no args, nothing for the
        GC to track.  The rich :meth:`begin`/:meth:`add_span` APIs cost
        1-2 us per span, which measurably blew the <5% overhead budget
        at tens of thousands of per-fence-round spans; a pair of array
        appends is ~100 ns and keeps the working set compact (16 bytes
        per span) so the simulation's cache behaviour is undisturbed.

        Pairs inherit the innermost span open at channel-creation time
        as their parent and surface as ordinary spans in
        :meth:`to_payload` (sorted into end order, empty span id, no
        args); metrics observation happens lazily at payload time.
        """
        parent = self._stack[-1].span_id if self._stack else self.parent_span_id
        key = (name, category, parent)
        buf = self._channels.get(key)
        if buf is None:
            buf = self._channels[key] = array.array("d")
        return buf

    def _observe(self, category: str, seconds: float) -> None:
        counter = self._m_count.get(category)
        if counter is None:
            metrics = typing.cast(typing.Any, self._metrics)
            counter = self._m_count[category] = metrics.counter(
                "repro_trace_spans_total", "Finished trace spans by category",
                labels={"category": category})
            self._m_secs[category] = metrics.histogram(
                "repro_trace_span_seconds", "Trace span durations by category",
                labels={"category": category})
        counter.inc()  # type: ignore[attr-defined]
        self._m_secs[category].observe(max(0.0, seconds))  # type: ignore[attr-defined]

    # -- propagation ---------------------------------------------------------
    def context(self) -> SpanContext:
        """The innermost open span's context (or the tracer root's)."""
        span_id = self._stack[-1].span_id if self._stack else (
            self.parent_span_id or "")
        return SpanContext(self.trace_id, span_id)

    def child_wire(self, process: str) -> "dict[str, str]":
        """Wire dict a child process adopts to join this trace."""
        ctx = self.context()
        return {"trace_id": ctx.trace_id, "span_id": ctx.span_id,
                "process": process}

    @classmethod
    def adopt(cls, wire: "dict[str, str]",
              metrics: "object | None" = None) -> "Tracer":
        """Build a child-process tracer from a :meth:`child_wire` dict."""
        return cls(process=str(wire.get("process", "child")),
                   trace_id=str(wire["trace_id"]),
                   parent=str(wire.get("span_id", "")), metrics=metrics)

    def absorb(self, payload: "dict | None") -> None:
        """Nest a child process's :meth:`to_payload` under this tracer."""
        if payload is not None:
            self.children.append(payload)

    # -- serialization -------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON/pickle-able dump of this tracer (and absorbed children).

        Spans still open at dump time are exported under ``open`` with
        their start only -- the merge draws them to the trace extent
        with an ``.unclosed`` category suffix, and ``explain --check``
        flags them as structural errors.
        """
        spans = [list(rec) for rec in self.spans]
        for key, buf in self._channels.items():
            name, category, parent = key
            pairs = iter(buf)
            new = [[name, category, s, e, "", parent, None]
                   for s, e in zip(pairs, pairs)]
            if self._metrics is not None:
                # Lazy (and idempotent across repeated dumps): observe
                # only pairs added since the last payload.
                seen = self._ch_observed.get(key, 0)
                for rec in new[seen:]:
                    self._observe(category, rec[3] - rec[2])
                self._ch_observed[key] = len(new)
            spans.extend(new)
        if self._channels:
            spans.sort(key=lambda rec: rec[3])
        return {
            "version": PAYLOAD_VERSION,
            "trace_id": self.trace_id,
            "process": self.process,
            "parent_span_id": self.parent_span_id,
            "spans": spans,
            "open": [[s.name, s.category, s.start, s.span_id, s.parent_id,
                      s.args] for s in self._stack],
            "children": list(self.children),
        }


def payload_spans(payload: dict) -> "list[SpanRecord]":
    """Decode one payload's finished spans back into records."""
    return [SpanRecord(*rec) for rec in payload.get("spans", ())]


# ---------------------------------------------------------------------------
# Ambient current tracer (the in-process propagation shim)
# ---------------------------------------------------------------------------
# Deeply nested call chains (sweep runner -> _run_cell -> run_app) would
# otherwise need a tracer parameter on functions whose *argument tuples
# are content-hash cache keys* (repro.service.jobs builds the exact CLI
# task tuples; adding a tracer arg would silently invalidate every cached
# result and break CLI/service key identity).  The runner therefore
# installs the tracer ambiently around each task; workers that can use
# one pick it up with current_tracer().  Thread-local so concurrent
# service worker threads never see each other's tracer.
_ambient = threading.local()


def current_tracer() -> "Tracer | None":
    """The tracer installed for the current task, or ``None``."""
    return getattr(_ambient, "tracer", None)


def set_current_tracer(tracer: "Tracer | None") -> None:
    _ambient.tracer = tracer


class use_tracer:
    """Context manager installing ``tracer`` as the ambient tracer."""

    __slots__ = ("tracer", "_prev")

    def __init__(self, tracer: "Tracer | None") -> None:
        self.tracer = tracer
        self._prev: "Tracer | None" = None

    def __enter__(self) -> "Tracer | None":
        self._prev = current_tracer()
        set_current_tracer(self.tracer)
        return self.tracer

    def __exit__(self, *_exc: object) -> None:
        set_current_tracer(self._prev)
