"""The data processing module: on-the-fly overlap bound derivation.

This implements Sec. 2.2 of the paper.  Walking the time-ordered event
stream of one process (paper Fig. 1 shows the stream for an RDMA-Read
exchange), the processor

* attributes every interval between consecutive events either to **user
  computation** (outside any library call) or **communication call time**
  (inside a call),
* tracks the set of *active* data-transfer operations (``XFER_BEGIN`` seen,
  ``XFER_END`` not yet), accumulating for each the interleaved
  ``computation_time`` and in-library ``noncomputation_time``,
* on ``XFER_END`` resolves the operation under one of three cases:

  1. begin and end stamped within the **same** library call -- the
     application sat inside the library for the whole transfer, so both
     bounds are zero;
  2. begin and end stamped in **different** calls -- with ``xfer_time``
     taken from the a-priori table:
     ``max = min(computation_time, xfer_time)`` and
     ``min = max(0, xfer_time - noncomputation_time)``;
  3. only **one** of the two events stamped -- nothing conclusive:
     ``min = 0``, ``max = xfer_time``.

State persists across drains of the circular queue, so only *active*
events need memory (the paper: "information is maintained only for the set
of currently active events"; no tracing).

Hot-path note: interval attribution is O(1) per event regardless of how
many transfers are active.  Instead of walking the active set on every
event (O(active) per event, quadratic on deep injection windows), the
processor maintains two *cumulative* clocks -- user-computation time and
in-call time, running while any transfer is in flight -- and each active
transfer snapshots them at ``XFER_BEGIN``.  At ``XFER_END`` the interleaved ``comp`` /
``noncomp`` windows fall out by subtraction.  The clocks are kept as exact
Shewchuk partial sums so the window values are *correctly rounded*: the
subtraction is bit-identical to exactly summing the per-transfer interval
list, which is what the straightforward oracle in
``tests/processor_reference.py`` does and what the differential property
tests rely on.
"""

from __future__ import annotations

import itertools
import math
import operator
import typing

from repro.core.events import (
    CALL_ENTER,
    CALL_EXIT,
    RESET,
    SECTION_BEGIN,
    SECTION_END,
    XFER_BEGIN,
    XFER_END,
    EventColumns,
    Row,
)
from repro.core.measures import (
    CASE_ONE_EVENT,
    CASE_SAME_CALL,
    CASE_SPLIT_CALL,
    DEFAULT_BIN_EDGES,
    OverlapMeasures,
)
from repro.core.xfer_table import XferTable

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.metrics import MetricsRegistry

_TIME_EPS = 1e-12

_new = tuple.__new__  # builds per-transfer records C-level, as in netsim.nic

#: Internal pseudo-kind: attribute the interval up to ``t`` and nothing
#: else (how ``finalize`` closes the run).  An object, so no stored or
#: replayed record can carry it.
_TICK: typing.Any = object()

#: Human-readable label values for the three bounding cases.
CASE_LABELS = {
    CASE_SAME_CALL: "same_call",
    CASE_SPLIT_CALL: "split_call",
    CASE_ONE_EVENT: "one_event",
}


class InstrumentationError(RuntimeError):
    """Raised on malformed event streams (library instrumentation bugs)."""


def _window(now: list[float], begin: tuple[float, ...]) -> float:
    """Correctly rounded ``sum(now) - sum(begin)`` of two exact partial sums.

    Negation of floats is exact, so fsum over the two together computes
    the correctly rounded value of the exact window -- bit-identical to
    exactly summing the intervals that fell inside it.
    """
    return math.fsum(itertools.chain(now, map(operator.neg, begin)))


class _ActiveXfer(typing.NamedTuple):
    """A data-transfer operation whose ``XFER_END`` has not been seen yet
    (built with ``tuple.__new__``: a record per transfer, no frame)."""

    begin_call: int  # outermost call sequence no., -1 if outside
    nbytes: float
    comp0: tuple[float, ...]  # computation-clock snapshot at begin
    noncomp0: tuple[float, ...]  # in-call-clock snapshot at begin
    sections: tuple[int, ...]


class CallStats:
    """Per-call-name invocation count and cumulative in-call time.

    Used to report e.g. "average time spent in MPI_Wait" (Figs. 3-9) and
    "overall MPI time" (Fig. 18).
    """

    __slots__ = ("count", "total_time")

    def __init__(self) -> None:
        self.count = 0
        self.total_time = 0.0


class DataProcessor:
    """Consumes event batches; owns the per-process overlap measures."""

    def __init__(
        self,
        xfer_table: XferTable,
        bin_edges: typing.Sequence[float] = DEFAULT_BIN_EDGES,
    ) -> None:
        self.xfer_table = xfer_table
        self._bin_edges = tuple(bin_edges)
        #: Whole-run measures.
        self.total = OverlapMeasures(bin_edges)
        #: Measures restricted to named monitoring sections.
        self.sections: dict[int, OverlapMeasures] = {}
        #: Per-call-name statistics (keyed by interned name id).
        self.call_stats: dict[int, CallStats] = {}

        self._active: dict[int, _ActiveXfer] = {}
        #: Most transfers ever simultaneously awaiting their ``XFER_END``.
        self.active_high_water = 0
        #: Intervals attributed (events that moved the clocks).
        self.interval_ops = 0
        # Cumulative clocks (exact partial sums): user computation and
        # in-call time attributed since the oldest active transfer began
        # (they idle, and restart from zero, while nothing is in flight).
        self._comp_clock: list[float] = []
        self._call_clock: list[float] = []
        self._depth = 0
        self._call_seq = 0
        self._call_enter_time = 0.0
        self._call_name = -1
        self._last_time: float | None = None
        self._section_stack: list[int] = []
        self._finalized = False

    def attach_metrics(
        self,
        metrics: "MetricsRegistry",
        labels: "dict[str, str] | None" = None,
    ) -> None:
        """Register processor health metrics (all sampled: no hot-path cost).

        Case counts read straight from the always-maintained
        :attr:`OverlapMeasures.case_counts`, so the three-case mix is
        scrapeable without a single extra operation per transfer.
        """
        counts = self.total.case_counts
        for case, label in CASE_LABELS.items():
            metrics.sampled_counter(
                "repro_processor_cases",
                (lambda c=case: counts[c]),
                "Transfers resolved under each Sec. 2.2 bounding case",
                {**(labels or {}), "case": label})
        metrics.sampled_gauge(
            "repro_processor_active_transfers", lambda: len(self._active),
            "Transfers currently awaiting their XFER_END", labels)
        metrics.sampled_gauge(
            "repro_processor_active_transfers_hiwater",
            lambda: self.active_high_water,
            "Most transfers ever simultaneously active", labels)
        metrics.sampled_counter(
            "repro_processor_interval_ops", lambda: self.interval_ops,
            "Interval-attribution operations (clock advances)", labels)
        metrics.sampled_counter(
            "repro_processor_transfers", lambda: self.total.transfer_count,
            "Transfers resolved into the overlap measures", labels)

    # -- event intake -----------------------------------------------------
    def process(
        self,
        batch: "EventColumns | typing.Iterable[Row]",
    ) -> None:
        """Digest a batch of events (oldest first).

        ``batch`` is either the :class:`~repro.core.events.EventColumns`
        a queue drains, walked column-wise without materializing a record
        object, or any iterable of ``(kind, time, a, b)`` records -- a
        list of :class:`~repro.core.events.TimedEvent`, a stored trace.
        """
        if self._finalized:
            raise InstrumentationError("processor already finalized")
        self._digest(batch.rows() if isinstance(batch, EventColumns) else batch)

    def finalize(self, end_time: float | None = None) -> None:
        """Resolve still-active transfers (case 3) and freeze the measures."""
        if self._finalized:
            return
        if end_time is not None:
            self._digest(((_TICK, end_time, 0, 0),))
        for xfer in self._active.values():
            xfer_time = self.xfer_table.time_for(xfer.nbytes)
            self.total.add_transfer(
                xfer.nbytes, xfer_time, 0.0, xfer_time, CASE_ONE_EVENT)
            for sec in xfer.sections:
                self.sections[sec].add_transfer(
                    xfer.nbytes, xfer_time, 0.0, xfer_time, CASE_ONE_EVENT)
        self._active.clear()
        self._finalized = True

    def _digest(self, rows: "typing.Iterable[Row]") -> None:
        """The one event loop: interval attribution, then the event itself.

        Runs once per stamp of every instrumented run, so everything it
        reads or changes per event lives in locals, written back once when
        the rows are exhausted (or the stream turns out malformed).
        Interval attribution is O(1) in active transfers: bump one
        cumulative clock and recover per-transfer windows by subtraction
        at ``XFER_END``.  A clock is a Shewchuk partial-sum list: it
        always represents the exact real value of everything added so far
        (``math.fsum`` over it is the correctly rounded total) and stays a
        handful of non-overlapping floats long -- mostly one, where a
        two-sum adds ``dt`` and a window against an empty or one-float
        snapshot is one correctly rounded subtraction.  Branches are
        ordered by frequency in real streams (calls, then transfers).
        """
        total = self.total
        comp_time = total.computation_time
        call_time = total.communication_call_time
        comp_clock = self._comp_clock
        call_clock = self._call_clock
        section_stack = self._section_stack
        sections = self.sections
        call_stats = self.call_stats
        active = self._active
        last = self._last_time
        depth = self._depth
        call_seq = self._call_seq
        enter_time = self._call_enter_time
        call_name = self._call_name
        time_for = self.xfer_table.time_for
        add_transfer = total.add_transfer
        ops = 0
        try:
            for kind, t, a, b in rows:
                if kind == RESET:
                    # Monitoring was paused: do not attribute the gap.
                    last = t
                    continue
                if last is not None:
                    dt = t - last
                    if dt > 0.0:
                        ops += 1
                        if depth > 0:
                            call_time += dt
                            partials = call_clock
                        else:
                            comp_time += dt
                            partials = comp_clock
                        if section_stack:
                            for sec in section_stack:
                                sections[sec].add_interval(dt, depth > 0)
                        # The clocks only matter to open windows.  A
                        # one-float clock takes dt by two-sum (no magnitude
                        # test), a longer one by the general pass.
                        if active and len(partials) == 1:
                            y = partials[0]
                            hi = y + dt
                            bp = hi - y
                            lo = (y - (hi - bp)) + (dt - bp)
                            if lo:
                                partials[0] = lo
                                partials.append(hi)
                            else:
                                partials[0] = hi
                        elif active:
                            x = dt
                            i = 0
                            for y in partials:
                                # |x| < |y|, without two builtin calls
                                if (x if x >= 0.0 else -x) < (y if y >= 0.0 else -y):
                                    x, y = y, x
                                hi = x + y
                                lo = y - (hi - x)
                                if lo:
                                    partials[i] = lo
                                    i += 1
                                x = hi
                            partials[i:] = [x]
                    elif dt < -_TIME_EPS:
                        raise InstrumentationError(
                            f"event stream goes backwards in time: {last} -> {t}"
                        )
                last = t
                if kind == CALL_ENTER:
                    depth += 1
                    if depth == 1:
                        call_seq += 1
                        enter_time = t
                        call_name = a
                elif kind == CALL_EXIT:
                    if depth <= 0:
                        raise InstrumentationError(
                            "CALL_EXIT without a matching CALL_ENTER"
                        )
                    depth -= 1
                    if depth == 0:
                        stats = call_stats.get(call_name)
                        if stats is None:
                            stats = call_stats[call_name] = CallStats()
                        stats.count += 1
                        stats.total_time += t - enter_time
                elif kind == XFER_END:
                    nbytes = float(b)
                    xfer = active.pop(a, None)
                    min_ov = 0.0
                    if xfer is None:
                        # Case 3: END without a BEGIN (e.g. the eager
                        # receiver, for whom initiation is transparent).
                        max_ov = xfer_time = time_for(nbytes)
                        case = CASE_ONE_EVENT
                        in_sections: "typing.Sequence[int]" = section_stack
                    else:
                        begin_call, begin_bytes, comp0, noncomp0, in_sections = xfer
                        if begin_bytes != nbytes and nbytes > 0:
                            raise InstrumentationError(
                                f"transfer {a} size mismatch: begin={begin_bytes} "
                                f"end={nbytes}"
                            )
                        nbytes = begin_bytes
                        xfer_time = time_for(nbytes)
                        if depth > 0 and begin_call == call_seq and begin_call != -1:
                            # Case 1: the application never left the library.
                            max_ov = 0.0
                            case = CASE_SAME_CALL
                        else:
                            # Case 2: bounded by interleaved computation /
                            # in-library time.  A one-float window is one
                            # correctly rounded subtraction, as fsum's is.
                            if len(comp_clock) == 1 and len(comp0) <= 1:
                                comp = (comp_clock[0] - comp0[0] if comp0
                                        else comp_clock[0])
                            else:
                                comp = _window(comp_clock, comp0)
                            if len(call_clock) == 1 and len(noncomp0) <= 1:
                                noncomp = (call_clock[0] - noncomp0[0] if noncomp0
                                           else call_clock[0])
                            else:
                                noncomp = _window(call_clock, noncomp0)
                            # max_ov = min(comp, xfer_time) and min_ov =
                            # min(max(0.0, xfer_time - noncomp), max_ov),
                            # spelled without three builtin calls.  The
                            # bounds must nest: min <= max always holds
                            # because comp + noncomp == end - begin >=
                            # xfer_time - noncomp whenever min > 0; clamp
                            # defensively against float noise.
                            max_ov = xfer_time if xfer_time < comp else comp
                            min_ov = xfer_time - noncomp
                            if not min_ov > 0.0:
                                min_ov = 0.0
                            if max_ov < min_ov:
                                min_ov = max_ov
                            case = CASE_SPLIT_CALL
                    add_transfer(nbytes, xfer_time, min_ov, max_ov, case)
                    for sec in in_sections:
                        sections[sec].add_transfer(
                            nbytes, xfer_time, min_ov, max_ov, case)
                elif kind == XFER_BEGIN:
                    if a in active:
                        raise InstrumentationError(
                            f"duplicate XFER_BEGIN for transfer {a}")
                    if not active:
                        # Nothing in flight: a window is a *difference* of
                        # the clocks, so they restart from zero (in place:
                        # this loop holds them) and stay a float or two long.
                        del comp_clock[:]
                        del call_clock[:]
                    active[a] = _new(_ActiveXfer, (
                        call_seq if depth > 0 else -1, float(b),
                        tuple(comp_clock), tuple(call_clock),
                        tuple(section_stack)))
                    if len(active) > self.active_high_water:
                        self.active_high_water = len(active)
                elif kind == SECTION_BEGIN:
                    section_stack.append(a)
                    sections.setdefault(a, OverlapMeasures(self._bin_edges))
                elif kind == SECTION_END:
                    if not section_stack or section_stack[-1] != a:
                        raise InstrumentationError(
                            f"SECTION_END {a} does not match open section stack "
                            f"{section_stack}"
                        )
                    section_stack.pop()
                elif kind is not _TICK:
                    raise InstrumentationError(f"unknown event kind {kind}")
        finally:
            total.computation_time = comp_time
            total.communication_call_time = call_time
            self.interval_ops += ops
            self._last_time = last
            self._depth = depth
            self._call_seq = call_seq
            self._call_enter_time = enter_time
            self._call_name = call_name
