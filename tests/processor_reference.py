"""Straightforward reference implementation of the overlap processor.

This is the unoptimized formulation of Sec. 2.2: every event walks the
set of active transfers and appends the interval to each one's own list;
at ``XFER_END`` the interleaved computation / in-library windows are the
exact (``math.fsum``) totals of those lists.  It lives under ``tests/``
purely as the differential-testing oracle for the optimized
:class:`repro.core.processor.DataProcessor`, whose cumulative-clock
subtraction produces the correctly rounded value of the same exact real
sum -- so the two implementations must agree *bit for bit* on every
measure.  See ``tests/test_property_processor_diff.py`` and
``tests/test_property_stamp_path.py``.

It is O(active transfers) per event and keeps one list per active
transfer; it reads events as objects (``ev.kind`` ...), so it takes
lists of ``TimedEvent`` or an ``EventColumns`` (which iterates as such).
"""

from __future__ import annotations

import math
import typing

from repro.core.events import EventKind, TimedEvent
from repro.core.measures import (
    CASE_ONE_EVENT,
    CASE_SAME_CALL,
    CASE_SPLIT_CALL,
    DEFAULT_BIN_EDGES,
    OverlapMeasures,
)
from repro.core.processor import CallStats, InstrumentationError, _TIME_EPS
from repro.core.xfer_table import XferTable


class _RefActiveXfer:
    """Active transfer carrying its own per-interval attribution lists."""

    __slots__ = ("begin_time", "begin_call", "nbytes", "comp_dts", "noncomp_dts",
                 "sections")

    def __init__(
        self,
        begin_time: float,
        begin_call: int,
        nbytes: float,
        sections: tuple[int, ...],
    ) -> None:
        self.begin_time = begin_time
        self.begin_call = begin_call
        self.nbytes = nbytes
        self.comp_dts: list[float] = []
        self.noncomp_dts: list[float] = []
        self.sections = sections


class ReferenceDataProcessor:
    """Drop-in oracle with the same public surface as ``DataProcessor``."""

    def __init__(
        self,
        xfer_table: XferTable,
        bin_edges: typing.Sequence[float] = DEFAULT_BIN_EDGES,
    ) -> None:
        self.xfer_table = xfer_table
        self._bin_edges = tuple(bin_edges)
        self.total = OverlapMeasures(bin_edges)
        self.sections: dict[int, OverlapMeasures] = {}
        self.call_stats: dict[int, CallStats] = {}

        self._active: dict[int, _RefActiveXfer] = {}
        self._depth = 0
        self._call_seq = 0
        self._call_enter_time = 0.0
        self._call_name = -1
        self._last_time: float | None = None
        self._section_stack: list[int] = []
        self._finalized = False

    # -- event intake -----------------------------------------------------
    def process(self, batch: typing.Sequence[TimedEvent]) -> None:
        if self._finalized:
            raise InstrumentationError("processor already finalized")
        for ev in batch:
            kind = ev.kind
            if kind == EventKind.RESET:
                self._last_time = ev.time
                continue
            self._advance(ev.time)
            if kind == EventKind.CALL_ENTER:
                self._depth += 1
                if self._depth == 1:
                    self._call_seq += 1
                    self._call_enter_time = ev.time
                    self._call_name = ev.a
            elif kind == EventKind.CALL_EXIT:
                if self._depth <= 0:
                    raise InstrumentationError(
                        "CALL_EXIT without a matching CALL_ENTER"
                    )
                self._depth -= 1
                if self._depth == 0:
                    stats = self.call_stats.setdefault(self._call_name, CallStats())
                    stats.count += 1
                    stats.total_time += ev.time - self._call_enter_time
            elif kind == EventKind.XFER_BEGIN:
                self._on_xfer_begin(ev)
            elif kind == EventKind.XFER_END:
                self._on_xfer_end(ev)
            elif kind == EventKind.SECTION_BEGIN:
                self._section_stack.append(ev.a)
                self.sections.setdefault(ev.a, OverlapMeasures(self._bin_edges))
            elif kind == EventKind.SECTION_END:
                if not self._section_stack or self._section_stack[-1] != ev.a:
                    raise InstrumentationError(
                        f"SECTION_END {ev.a} does not match open section stack "
                        f"{self._section_stack}"
                    )
                self._section_stack.pop()
            else:  # pragma: no cover - enum is exhaustive
                raise InstrumentationError(f"unknown event kind {kind}")

    def finalize(self, end_time: float | None = None) -> None:
        if self._finalized:
            return
        if end_time is not None:
            self._advance(end_time)
        for xfer in self._active.values():
            xfer_time = self.xfer_table.time_for(xfer.nbytes)
            self._record(xfer.nbytes, xfer_time, 0.0, xfer_time, CASE_ONE_EVENT,
                         xfer.sections)
        self._active.clear()
        self._finalized = True

    # -- interval attribution ----------------------------------------------
    def _advance(self, t: float) -> None:
        last = self._last_time
        if last is None:
            self._last_time = t
            return
        dt = t - last
        if dt < -_TIME_EPS:
            raise InstrumentationError(
                f"event stream goes backwards in time: {last} -> {t}"
            )
        if dt > 0.0:
            in_call = self._depth > 0
            self.total.add_interval(dt, in_call)
            for sec in self._section_stack:
                self.sections[sec].add_interval(dt, in_call)
            # The straightforward O(active) walk the optimized path avoids.
            if in_call:
                for xfer in self._active.values():
                    xfer.noncomp_dts.append(dt)
            else:
                for xfer in self._active.values():
                    xfer.comp_dts.append(dt)
        self._last_time = t

    # -- event handlers -----------------------------------------------------
    def _on_xfer_begin(self, ev: TimedEvent) -> None:
        if ev.a in self._active:
            raise InstrumentationError(f"duplicate XFER_BEGIN for transfer {ev.a}")
        begin_call = self._call_seq if self._depth > 0 else -1
        self._active[ev.a] = _RefActiveXfer(
            ev.time, begin_call, float(ev.b), tuple(self._section_stack)
        )

    def _on_xfer_end(self, ev: TimedEvent) -> None:
        xfer = self._active.pop(ev.a, None)
        nbytes = float(ev.b)
        if xfer is None:
            xfer_time = self.xfer_table.time_for(nbytes)
            self._record(nbytes, xfer_time, 0.0, xfer_time, CASE_ONE_EVENT,
                         tuple(self._section_stack))
            return
        if xfer.nbytes != nbytes and nbytes > 0:
            raise InstrumentationError(
                f"transfer {ev.a} size mismatch: begin={xfer.nbytes} end={nbytes}"
            )
        xfer_time = self.xfer_table.time_for(xfer.nbytes)
        same_call = (
            self._depth > 0
            and xfer.begin_call == self._call_seq
            and xfer.begin_call != -1
        )
        if same_call:
            self._record(xfer.nbytes, xfer_time, 0.0, 0.0, CASE_SAME_CALL,
                         xfer.sections)
        else:
            comp = math.fsum(xfer.comp_dts)
            noncomp = math.fsum(xfer.noncomp_dts)
            max_ov = min(comp, xfer_time)
            min_ov = max(0.0, xfer_time - noncomp)
            min_ov = min(min_ov, max_ov)
            self._record(xfer.nbytes, xfer_time, min_ov, max_ov, CASE_SPLIT_CALL,
                         xfer.sections)

    def _record(
        self,
        nbytes: float,
        xfer_time: float,
        min_ov: float,
        max_ov: float,
        case: int,
        sections: tuple[int, ...],
    ) -> None:
        self.total.add_transfer(nbytes, xfer_time, min_ov, max_ov, case)
        for sec in sections:
            self.sections[sec].add_transfer(nbytes, xfer_time, min_ov, max_ov, case)

    # -- introspection -------------------------------------------------------
    @property
    def active_transfer_count(self) -> int:
        return len(self._active)

    @property
    def in_call(self) -> bool:
        return self._depth > 0
