"""Per-process monitor: the data collection module's public face.

One :class:`Monitor` is instantiated per process (paper Sec. 2.4: "the
framework is instantiated at the individual process level and operates
locally without performing any interprocessor communication").  The
communication library stamps events through it; the application controls
monitoring sections through it; at shutdown it produces the per-process
:class:`~repro.core.report.OverlapReport`.

The monitor owns the fixed-size circular event queue and the data
processing module, wiring the queue's drain to the processor -- the
structure of the paper's Fig. 2.
"""

from __future__ import annotations

import contextlib
import typing

from repro.core.equeue import CircularEventQueue
from repro.core.events import (
    CALL_ENTER,
    CALL_EXIT,
    RESET,
    SECTION_BEGIN,
    SECTION_END,
    XFER_BEGIN,
    XFER_END,
    EventKind,
    NameRegistry,
    Row,
)
from repro.core.measures import DEFAULT_BIN_EDGES
from repro.core.processor import DataProcessor, InstrumentationError
from repro.core.report import OverlapReport
from repro.core.xfer_table import XferTable

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.metrics import MetricsRegistry

#: Default circular-queue capacity (events).  A full queue is 100 KiB of
#: columns (25 B per record), large enough that drains are rare; ablation
#: EA4 sweeps this.
DEFAULT_QUEUE_CAPACITY = 4096

_NBYTES_MAX = 2**63 - 1  # what the queue's signed 64-bit ``b`` column holds
#: Sizes in ``[0, _NBYTES_END)`` truncate with a bare ``int()``; everything
#: else (negative fractions, NaN, out of range) goes to ``_whole_bytes``.
_NBYTES_END = 2.0**63


class Monitor:
    """Event stamping API + section control for one process.

    Parameters
    ----------
    clock:
        The time source: an object whose ``now`` attribute is the current
        time (the simulation passes the rank's clock, so a stamp reads an
        attribute instead of calling), or a zero-argument callable.  The
        real system would use ``gettimeofday``.
    xfer_table:
        The a-priori transfer-time table (loaded "during MPI_Init").
    queue_capacity:
        Circular event queue size.
    bin_edges:
        Message-size-range boundaries for the per-size breakdown.
    enabled:
        Initial monitoring state; a disabled monitor stamps nothing and
        costs (almost) nothing.
    processor_factory:
        Optional ``(xfer_table, bin_edges) -> DataProcessor`` override,
        e.g. :class:`repro.telemetry.windows.WindowedProcessor` for
        time-resolved collection.  Defaults to :class:`DataProcessor`.
    metrics:
        Optional :class:`~repro.metrics.MetricsRegistry` for framework
        self-observability: the monitor registers its own, the queue's
        and the processor's health metrics under ``metrics_labels``
        (typically ``{"rank": "0"}``).  ``None`` (the default) is the nil
        fast path -- stamping is byte-for-byte the pre-metrics hot path.
    stamp_loss:
        Optional :class:`~repro.faults.inject.StampLoss`: a seeded
        coin-flipper that makes individual ``XFER_BEGIN`` / ``XFER_END``
        stamps vanish, modeling lossy instrumentation.  A transfer that
        loses one of its two stamps degrades to the paper's Case 3 bounds
        (``min = 0``, ``max = xfer_time``); losing both removes it from
        the report entirely.  ``None`` (the default) stamps everything.
    overhead_per_event:
        CPU the instrument costs per event stamped inside a library call
        (Fig. 20), charged to ``clock`` by :meth:`call`; a non-zero cost
        needs a clock whose ``now`` can be set.
    ring_mode:
        When True the event queue runs as a fixed ring instead of
        draining to the processor: overflow overwrites the *oldest*
        stamps and only the newest ``queue_capacity`` events survive to
        :meth:`finalize`, which sanitizes the surviving suffix (orphaned
        ``CALL_EXIT`` / ``SECTION_END`` whose openers were overwritten
        are discarded; orphaned ``XFER_END`` events pass through and
        resolve as Case 3).  Models a bounded trace buffer that cannot
        afford mid-run processing.  Queue taps still see every stamp.
    """

    def __init__(
        self,
        clock: typing.Any,
        xfer_table: XferTable,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        bin_edges: typing.Sequence[float] = DEFAULT_BIN_EDGES,
        enabled: bool = True,
        processor_factory: "typing.Callable[[XferTable, typing.Sequence[float]], DataProcessor] | None" = None,
        metrics: "MetricsRegistry | None" = None,
        metrics_labels: "dict[str, str] | None" = None,
        stamp_loss: "typing.Any | None" = None,
        ring_mode: bool = False,
        overhead_per_event: float = 0.0,
    ) -> None:
        self._clock = clock if hasattr(clock, "now") else _CallableClock(clock)
        self._overhead = overhead_per_event
        self.names = NameRegistry()
        self._name_ids = self.names.ids
        factory = processor_factory or DataProcessor
        self.processor = factory(xfer_table, bin_edges)
        self.queue = CircularEventQueue(
            queue_capacity, None if ring_mode else self.processor.process
        )
        self._stamp_loss = stamp_loss
        self._next_xfer_id = 0
        self._enabled = enabled
        self._was_paused = False
        self._finalized = False
        #: Total events stamped (drives the Fig. 20 overhead model).
        self.event_count = 0
        #: Per-kind stamp counts (allocated only when metrics are attached).
        self._kind_counts: "list[int] | None" = None
        if metrics is not None:
            self.attach_metrics(metrics, metrics_labels)
        self.start_time = self._clock.now

    def attach_metrics(
        self,
        metrics: "MetricsRegistry",
        labels: "dict[str, str] | None" = None,
    ) -> None:
        """Register monitor/queue/processor health metrics.

        Everything except the per-kind event counters is sampled from
        diagnostics the components maintain anyway; the per-kind counts
        add one list-index increment per stamped event.
        """
        if self._kind_counts is None:
            self._kind_counts = [0] * len(EventKind)
        counts = self._kind_counts
        for kind in EventKind:
            metrics.sampled_counter(
                "repro_monitor_events",
                (lambda k=int(kind): counts[k]),
                "Events stamped, by kind",
                {**(labels or {}), "kind": kind.name.lower()})
        metrics.sampled_gauge(
            "repro_monitor_enabled", lambda: float(self._enabled),
            "1 while the monitor is stamping, 0 while paused", labels)
        self.queue.attach_metrics(metrics, labels)
        self.processor.attach_metrics(metrics, labels)

    # -- enable / pause -----------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def pause(self) -> None:
        """Stop logging events; intervals while paused are not attributed."""
        self._enabled = False
        self._was_paused = True

    def resume(self) -> None:
        """Resume logging after :meth:`pause`."""
        if not self._enabled:
            self._enabled = True
            if self._was_paused:
                # Tell the processor not to attribute the paused gap.
                self.stamp(RESET, 0, 0)

    # -- stamping (library-facing) -------------------------------------------
    def call(self, name: str, body: typing.Generator) -> typing.Generator:
        """Run ``body``, a library routine's generator, as one instrumented
        call: ``result = yield from monitor.call("MPI_Send", body)``.

        Stamps ``CALL_ENTER``, runs the body, charges the instrument's own
        CPU (``overhead_per_event`` per event stamped in the call, its
        ``CALL_EXIT`` included) to the clock and stamps ``CALL_EXIT``.
        """
        ident = self._name_ids[name]
        n0 = self.event_count
        self.stamp(CALL_ENTER, ident, 0)
        try:
            result = yield from body
        except Exception:
            # The application may catch a library error and carry on: the
            # call is over either way (no instrumentation debt is charged).
            self.stamp(CALL_EXIT, ident, 0)
            raise
        stamped = self.event_count - n0
        if stamped:
            debt = (stamped + 1) * self._overhead
            if debt > 0:
                clock = self._clock
                clock.now = clock.now + debt
        self.stamp(CALL_EXIT, ident, 0)
        return result

    def call_enter(self, name: str) -> None:
        """Stamp entry into a library call."""
        self.stamp(CALL_ENTER, self._name_ids[name], 0)

    def call_exit(self, name: str) -> None:
        """Stamp exit from a library call."""
        self.stamp(CALL_EXIT, self._name_ids[name], 0)

    def xfer_begin(self, nbytes: float, xfer_id: int | None = None) -> int:
        """Stamp initiation of a data-transfer operation; returns its id."""
        if xfer_id is None:
            xfer_id = self._next_xfer_id
            self._next_xfer_id = xfer_id + 1
        if self._enabled:
            loss = self._stamp_loss
            if loss is not None and loss.drop_begin():
                return xfer_id
            self.stamp(XFER_BEGIN, xfer_id,
                       int(nbytes) if 0 <= nbytes < _NBYTES_END
                       else _whole_bytes("xfer_begin", nbytes))
        return xfer_id

    def xfer_end(self, xfer_id: int, nbytes: float) -> None:
        """Stamp completion of a data-transfer operation."""
        if self._enabled:
            loss = self._stamp_loss
            if loss is not None and loss.drop_end():
                return
            self.stamp(XFER_END, xfer_id,
                       int(nbytes) if 0 <= nbytes < _NBYTES_END
                       else _whole_bytes("xfer_end", nbytes))

    def xfer_end_only(self, nbytes: float) -> None:
        """Stamp a completion whose initiation was invisible (case 3).

        Used e.g. by the eager receiver: "the initiation of the send is
        transparent to the receiver".
        """
        xfer_id = self._next_xfer_id
        self._next_xfer_id = xfer_id + 1
        self.xfer_end(xfer_id, nbytes)

    # -- sections (application-facing) ----------------------------------------
    def section_begin(self, name: str) -> None:
        """Open a named monitoring section (Sec. 2.3's code-region control)."""
        self.stamp(SECTION_BEGIN, self._name_ids[name], 0)

    def section_end(self, name: str) -> None:
        """Close the innermost monitoring section (must match ``name``)."""
        self.stamp(SECTION_END, self._name_ids[name], 0)

    @contextlib.contextmanager
    def section(self, name: str) -> typing.Iterator[None]:
        """Context manager for a monitoring section."""
        self.section_begin(name)
        try:
            yield
        finally:
            self.section_end(name)

    # -- shutdown ----------------------------------------------------------
    def finalize(self, rank: int = 0, label: str = "") -> OverlapReport:
        """Flush the queue, resolve active transfers, build the report."""
        if self._finalized:
            raise InstrumentationError("monitor already finalized")
        end_time = self._clock.now
        queue = self.queue
        if queue.ring:
            # Ring mode: only the newest ``capacity`` stamps survived.  The
            # taps get the ones they have not seen.  The suffix may open
            # mid-call / mid-section, so sanitize before feeding the
            # processor (which rejects orphaned closers).
            queue._tap_unseen()
            self.processor.process(_sanitize_suffix(queue.snapshot().rows()))
        else:
            queue.flush()
        self.processor.finalize(end_time)
        self._finalized = True
        return OverlapReport.from_processor(
            self.processor,
            self.names,
            rank=rank,
            label=label,
            wall_time=end_time - self.start_time,
            event_count=self.event_count,
        )

    def stamp(self, kind: int, a: int, b: int) -> None:
        """Log one record if monitoring is enabled: read the clock, append
        to the queue's columns.  Every named method above ends here; a
        caller holding the interned id (``names.ids[name]``) stamps call
        and section events through it directly."""
        if not self._enabled:
            return
        if self._finalized:
            raise InstrumentationError("monitor already finalized")
        t = self._clock.now
        queue = self.queue
        cols = queue.columns
        if len(cols.kind) < queue.capacity:
            # ``a`` goes first: it is the one value a caller supplies
            # unchecked, and a column that rejects it leaves no half record.
            cols.a.append(a)
            cols.b.append(b)
            cols.time.append(t)
            cols.kind.append(kind)
        else:
            # Full: drain to the processor (or overwrite the oldest).
            queue.append(kind, t, a, b)
        self.event_count += 1
        kind_counts = self._kind_counts
        if kind_counts is not None:
            kind_counts[kind] += 1


class _CallableClock:
    """Adapts a zero-argument time source to the ``now`` attribute."""

    __slots__ = ("_read",)

    def __init__(self, read: typing.Callable[[], float]) -> None:
        self._read = read

    @property
    def now(self) -> float:
        return self._read()


def _whole_bytes(call: str, nbytes: float) -> int:
    """``int(nbytes)``, provided the queue's 64-bit column can hold it."""
    try:
        whole = int(nbytes)
    except (ValueError, OverflowError):  # NaN, +-inf
        whole = -1
    if 0 <= whole <= _NBYTES_MAX:
        return whole
    raise InstrumentationError(
        f"{call}: nbytes must be a finite size in [0, 2**63), got {nbytes!r}"
    )


def _sanitize_suffix(events: "typing.Iterable[Row]") -> "list[Row]":
    """Make a ring-overflow suffix digestible by the processor.

    ``events`` are ``(kind, time, a, b)`` records (plain rows or
    :class:`TimedEvent`).  Overflow overwrites the *oldest* stamps, so the
    surviving stream can close scopes it never opened.  Orphaned
    ``CALL_EXIT`` (depth would go negative) and ``SECTION_END`` (no
    matching open section) events are discarded; everything else passes
    through in order.  Orphaned ``XFER_END`` events are deliberately kept:
    the processor resolves an END without a BEGIN under Case 3, which is
    exactly the paper's "only one of the two events stamped" bound.
    """
    out: "list[Row]" = []
    depth = 0
    sections: list[int] = []
    for ev in events:
        kind, _t, a, _b = ev
        if kind == CALL_ENTER:
            depth += 1
        elif kind == CALL_EXIT:
            if depth == 0:
                continue
            depth -= 1
        elif kind == SECTION_BEGIN:
            sections.append(a)
        elif kind == SECTION_END:
            if not sections or sections[-1] != a:
                continue
            sections.pop()
        out.append(ev)
    return out


class NullMonitor:
    """A monitor that records nothing (the 'uninstrumented library').

    Shares the :class:`Monitor` stamping interface so the library code is
    identical in instrumented and uninstrumented builds; used for the
    Fig. 20 overhead comparison.
    """

    enabled = False
    event_count = 0
    #: :attr:`Monitor.names`' twin, shared by every NullMonitor; nothing
    #: is ever stamped against it.
    names = NameRegistry()

    def stamp(self, kind: int, a: int, b: int) -> None:
        pass

    def call(self, name: str, body: typing.Generator) -> typing.Generator:
        return body  # nothing stamped, so no instrumentation debt

    def call_enter(self, name: str) -> None:
        pass

    def call_exit(self, name: str) -> None:
        pass

    def xfer_begin(self, nbytes: float, xfer_id: int | None = None) -> int:
        return -1

    def xfer_end(self, xfer_id: int, nbytes: float) -> None:
        pass

    def xfer_end_only(self, nbytes: float) -> None:
        pass

    def section_begin(self, name: str) -> None:
        pass

    def section_end(self, name: str) -> None:
        pass

    @contextlib.contextmanager
    def section(self, name: str) -> typing.Iterator[None]:
        yield

    def pause(self) -> None:
        pass

    def resume(self) -> None:
        pass

    def finalize(self, rank: int = 0, label: str = "") -> None:
        return None
