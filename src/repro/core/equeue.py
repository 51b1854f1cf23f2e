"""Fixed-size circular event queue (paper Fig. 2).

The data collection module logs time-stamped events into a fixed-size,
in-memory structure of fixed-size records.  When the queue fills, the data
processing module examines the events, updates the overlap measures
on-the-fly, and the head pointer is reset so subsequent events can be
stored.  No tracing is performed: the queue never grows past its capacity
and nothing is written to disk until the final report.

Records are stored as four parallel typed columns
(:class:`~repro.core.events.EventColumns`: 25 bytes per record, no
per-record Python object) and a drain hands the processor those columns.

Overflow semantics are explicit.  With a ``drain`` callback (the normal
monitor wiring) a full queue is flushed to the processor and nothing is
ever lost.  Without one (``drain=None`` -- a standalone capture ring, e.g.
a bounded trace buffer that cannot afford mid-run processing) the queue
keeps the **newest** ``capacity`` events, overwriting the oldest and
counting every overwrite in :attr:`CircularEventQueue.dropped` -- overflow
is a number, not a silent behavior.

Either way a queue *tap* sees every record stored after it was added, in
order: a draining queue hands its taps each batch before the drain, a ring
hands them each ``capacity`` records as it starts to overwrite them.
"""

from __future__ import annotations

import typing
from time import perf_counter

from repro.core.events import EventColumns

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.metrics import MetricsRegistry

Drain = typing.Callable[[EventColumns], None]


class CircularEventQueue:
    """Bounded columnar event buffer drained by a callback when full.

    Parameters
    ----------
    capacity:
        Number of event slots (the paper's fixed queue size).
    drain:
        Callable invoked with the buffered records (an
        :class:`~repro.core.events.EventColumns`, oldest first) when the
        queue fills or :meth:`flush` is called.  The batch is detached
        from the queue: the callback may keep it.  ``None`` selects ring
        mode: overflow overwrites the oldest event and increments
        :attr:`dropped`.
    metrics:
        Optional :class:`~repro.metrics.MetricsRegistry`; when given, the
        queue registers occupancy / flush / drop health metrics under
        ``labels``.  ``None`` (the default) is the nil fast path: no
        registration, no per-event metric work.
    """

    __slots__ = (
        "capacity", "columns", "drains", "dropped", "reentrant_flushes",
        "_drain", "_taps", "_tapped", "_start", "_draining", "_drained",
        "_high_water", "_flush_hist",
    )

    def __init__(
        self,
        capacity: int,
        drain: "Drain | None",
        metrics: "MetricsRegistry | None" = None,
        labels: "dict[str, str] | None" = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._drain = drain
        #: The buffered records.  The columns grow by appending, up to
        #: ``capacity`` records, so a queue costs what it holds: a
        #: 4096-rank run builds 4096 of these and most never see more than
        #: a few dozen events between drains.  A stamping fast path may
        #: append here directly while ``len(queue) < capacity``; a full
        #: queue must go through :meth:`append`.  Replaced by fresh
        #: columns on every drain -- do not cache it across stamps.
        self.columns = EventColumns()
        self._taps: tuple[Drain, ...] = ()
        self._tapped = 0  # ring mode: records pushed before the unseen ones
        self._start = 0  # oldest slot, once a ring has wrapped
        self._draining = False
        self._drained = 0  # records handed to the drain so far
        self._high_water = 0  # largest batch drained so far
        #: Number of times the queue was drained.
        self.drains = 0
        #: Events overwritten before anyone saw them (ring mode overflow).
        self.dropped = 0
        #: Flushes requested while a drain callback was already running.
        self.reentrant_flushes = 0
        self._flush_hist = None
        if metrics is not None:
            self.attach_metrics(metrics, labels)

    def attach_metrics(
        self,
        metrics: "MetricsRegistry",
        labels: "dict[str, str] | None" = None,
    ) -> None:
        """Register this queue's health metrics (sampled: no hot-path cost)."""
        metrics.sampled_gauge(
            "repro_equeue_occupancy", lambda: len(self),
            "Events currently buffered in the circular queue", labels)
        metrics.sampled_gauge(
            "repro_equeue_occupancy_hiwater",
            lambda: self.occupancy_high_water,
            "Highest circular-queue occupancy reached", labels)
        metrics.sampled_counter(
            "repro_equeue_events_pushed", lambda: self.pushed,
            "Events ever pushed into the circular queue", labels)
        metrics.sampled_counter(
            "repro_equeue_flushes", lambda: self.drains,
            "Queue drains to the data processor", labels)
        metrics.sampled_counter(
            "repro_equeue_events_dropped", lambda: self.dropped,
            "Events overwritten on ring-mode overflow", labels)
        metrics.sampled_counter(
            "repro_equeue_reentrant_flushes", lambda: self.reentrant_flushes,
            "Flushes requested while a drain was already running", labels)
        self._flush_hist = metrics.histogram(
            "repro_equeue_flush_seconds",
            "Host seconds spent inside one drain callback", labels)

    def add_tap(self, tap: Drain) -> None:
        """Hand ``tap`` every record stored from now on, oldest first.

        How a :class:`~repro.core.trace.TraceSink` records a run without
        per-stamp work.  What the queue holds now goes to the existing taps
        (and the drain), not to ``tap``.  A draining queue hands its taps
        each batch before ``drain`` sees it.  A ring hands them each
        ``capacity`` records as it starts to overwrite them; the monitor
        hands them the survivors when it finalizes.
        """
        if self._drain is None:
            self._tap_unseen()
        else:
            self.flush()
        self._taps += (tap,)

    def _tap_unseen(self) -> None:
        """Ring mode: hand the taps the buffered records they have not seen
        (the newest ``pushed - _tapped``), oldest first."""
        pushed = self.pushed
        unseen = pushed - self._tapped
        self._tapped = pushed
        if unseen and self._taps:
            batch = self.snapshot()
            if unseen < len(batch):
                batch = EventColumns(*(
                    col[-unseen:]
                    for col in (batch.kind, batch.time, batch.a, batch.b)
                ))
            for tap in self._taps:
                tap(batch)

    def __len__(self) -> int:
        return len(self.columns.kind)

    # The diagnostics below are derived from what a drain already knows
    # rather than counted per stamp.
    @property
    def ring(self) -> bool:
        """True for a queue created without a drain (overwrite on overflow)."""
        return self._drain is None

    @property
    def pushed(self) -> int:
        """Total events ever stored (drained, overwritten or still buffered)."""
        return self._drained + self.dropped + len(self.columns.kind)

    @property
    def occupancy_high_water(self) -> int:
        """Highest occupancy ever reached."""
        return max(self._high_water, len(self.columns.kind))

    def append(self, kind: int, time: float, a: int, b: int) -> None:
        """Store one record, draining to the processor first if full.

        In ring mode (no drain callback) a full queue overwrites its
        oldest record instead, counting the loss in :attr:`dropped`.
        """
        cols = self.columns
        if len(cols.kind) == self.capacity:
            if self._drain is None:
                # Ring mode: overwrite the oldest slot, keep the newest
                # ``capacity`` events, and account for the loss.  Taps get
                # the whole ring before its oldest unseen record goes.
                if self._taps and self._tapped == self.dropped:
                    self._tap_unseen()
                i = self._start
                cols.a[i] = a
                cols.b[i] = b
                cols.time[i] = time
                cols.kind[i] = kind
                self._start = (i + 1) % self.capacity
                self.dropped += 1
                return
            self.flush()
            cols = self.columns
        cols.append(kind, time, a, b)

    def snapshot(self) -> EventColumns:
        """A copy of the buffered records, oldest first, consuming nothing."""
        cols, start = self.columns, self._start
        return EventColumns(*(
            col[start:] + col[:start]
            for col in (cols.kind, cols.time, cols.a, cols.b)
        ))

    def flush(self) -> None:
        """Drain all buffered events to the processor and reset the head.

        Reentrancy-safe: the queue starts fresh columns *before* the drain
        callback runs (the batch is detached), so a callback that pushes
        events back -- e.g. a processor emitting derived events while
        consuming a full queue -- stores them in the new columns instead
        of having them silently erased by a post-drain reset.
        """
        batch = self.columns
        n = len(batch.kind)
        if n == 0:
            return
        if self._drain is None:
            raise ValueError("cannot flush a queue created without a drain")
        if self._draining:
            self.reentrant_flushes += 1
        self.columns = EventColumns()
        self.drains += 1
        self._drained += n
        if n > self._high_water:
            self._high_water = n
        hist = self._flush_hist
        was_draining = self._draining
        self._draining = True
        try:
            for tap in self._taps:
                tap(batch)
            if hist is not None:
                t0 = perf_counter()
                self._drain(batch)
                hist.observe(perf_counter() - t0)
            else:
                self._drain(batch)
        finally:
            self._draining = was_draining
