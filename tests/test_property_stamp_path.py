"""Differential property test of the whole stamp path.

Random valid instrumentation streams are driven through the *public
stamping API* of a real :class:`Monitor` -- columnar queue, drain or ring
mode, every interesting capacity, with and without an attached
:class:`TraceSink`, with the plain and the windowed processor -- and the
report must be identical (``==`` on every number) to what the straightforward
:class:`ReferenceDataProcessor` derives from the same events, built here
by the test without going through the code under test.

Also pins what a trace records: ``TraceSink.events`` and
``telemetry.per_rank[i].events`` are lists of ``TimedEvent``, element for
element the stamped stream.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    DataProcessor,
    Monitor,
    OverlapReport,
    TraceSink,
    XferTable,
)
from repro.core.events import EventKind, NameRegistry, TimedEvent
from repro.core.monitor import _sanitize_suffix
from repro.telemetry.windows import WindowedProcessor
from tests.processor_reference import ReferenceDataProcessor

K = EventKind
CAPACITIES = (1, 2, 7, 64, 4096)
_DT_POOL = (0.0, 1e-12, 3.0000000000000004e-07, 1e-6, 2.5e-6,
            1.0000000000000002e-6, 0.1, 0.30000000000000004, 7.7e-5)
_NBYTES_POOL = (1, 7, 512, 1024, 123456, 9_000_000, 4096.75)
_CALLS = ("MPI_Isend", "MPI_Irecv", "MPI_Wait", "MPI_Waitall")
_SECTIONS = ("solve", "exchange", "io")
_TABLE = XferTable([1.0, 1024.0, 65536.0, 1048576.0], [2e-6, 1e-5, 1e-4, 1e-3])


@st.composite
def op_streams(draw) -> "list[tuple]":
    """A structurally valid sequence of ``(dt, stamp, *args)`` operations."""
    ops: list[tuple] = []
    depth: list[str] = []
    sections: list[str] = []
    active: list[tuple[int, float]] = []
    next_id = 0
    for _ in range(draw(st.integers(min_value=5, max_value=70))):
        dt = draw(st.sampled_from(_DT_POOL))
        choices = ["call_enter", "xfer_begin", "xfer_end_only", "pause_resume"]
        if depth:
            choices += ["call_exit", "call_exit"]
        if active:
            choices += ["xfer_end", "xfer_end"]
        if len(sections) < len(_SECTIONS):
            choices.append("section_begin")
        if sections:
            choices.append("section_end")
        op = draw(st.sampled_from(choices))
        if op == "call_enter":
            depth.append(draw(st.sampled_from(_CALLS)))
            ops.append((dt, op, depth[-1]))
        elif op == "call_exit":
            ops.append((dt, op, depth.pop()))
        elif op == "xfer_begin":
            nbytes = draw(st.sampled_from(_NBYTES_POOL))
            active.append((next_id, nbytes))
            ops.append((dt, op, next_id, nbytes))
            next_id += 1
        elif op == "xfer_end":
            ident, nbytes = active.pop(
                draw(st.integers(min_value=0, max_value=len(active) - 1)))
            # Zero means "size unknown at end" (allowed by the processor).
            ops.append((dt, op, ident, draw(st.sampled_from((nbytes, 0)))))
        elif op == "xfer_end_only":
            ops.append((dt, "xfer_end", next_id,
                        draw(st.sampled_from(_NBYTES_POOL))))
            next_id += 1
        elif op == "section_begin":
            name = draw(st.sampled_from(
                [s for s in _SECTIONS if s not in sections]))
            sections.append(name)
            ops.append((dt, op, name))
        elif op == "section_end":
            ops.append((dt, op, sections.pop()))
        else:
            ops.append((dt, op))
    return ops


class _Clock:
    now = 0.0

    def __call__(self) -> float:
        return self.now


def _drive(monitor: Monitor, clock: _Clock, ops) -> "list[TimedEvent]":
    """Stamp ``ops`` through the monitor; return the events that implies."""
    names = NameRegistry()  # ids are assigned in order of first use
    expected = []
    for dt, op, *args in ops:
        clock.now += dt
        if op == "pause_resume":
            monitor.pause()
            clock.now += 0.125  # a gap the report must not attribute
            monitor.resume()
            expected.append(TimedEvent(K.RESET, clock.now, 0, 0))
        elif op.startswith("xfer"):
            ident, nbytes = args
            if op == "xfer_begin":
                assert monitor.xfer_begin(nbytes, xfer_id=ident) == ident
            else:
                monitor.xfer_end(ident, nbytes)
            expected.append(
                TimedEvent(K[op.upper()], clock.now, ident, int(nbytes)))
        else:
            getattr(monitor, op)(args[0])
            expected.append(
                TimedEvent(K[op.upper()], clock.now, names.ids[args[0]], 0))
    return expected


def _reference_report(events, names, wall_time, count) -> dict:
    ref = ReferenceDataProcessor(_TABLE)
    ref.process(events)
    ref.finalize(wall_time)
    return OverlapReport.from_processor(
        ref, names, rank=3, label="prop", wall_time=wall_time,
        event_count=count).to_dict()


@settings(max_examples=40, deadline=None)
@given(ops=op_streams(), tail=st.sampled_from(_DT_POOL))
def test_report_identical_to_reference_for_every_queue_shape(ops, tail):
    for capacity in CAPACITIES:
        for ring in (False, True):
            for traced in (False, True):
                for factory in (DataProcessor, WindowedProcessor):
                    clock = _Clock()
                    monitor = Monitor(clock, _TABLE, queue_capacity=capacity,
                                      ring_mode=ring, processor_factory=factory)
                    sink = TraceSink()
                    if traced:
                        sink.attach(monitor)
                    events = _drive(monitor, clock, ops)
                    clock.now += tail
                    report = monitor.finalize(rank=3, label="prop")

                    assert report.event_count == len(events)
                    assert monitor.queue.pushed == len(events)
                    if traced:
                        assert sink.events == events
                    survivors = events
                    if ring:
                        assert monitor.queue.dropped == max(
                            0, len(events) - capacity)
                        survivors = _sanitize_suffix(events[-capacity:])
                    else:
                        assert monitor.queue.occupancy_high_water == min(
                            capacity, len(events))
                    assert report.to_dict() == _reference_report(
                        survivors, monitor.names, clock.now, len(events))
                    if factory is WindowedProcessor:
                        totals = monitor.processor.series().totals()
                        assert totals["max_overlap_time"] == \
                            report.total.max_overlap_time
                        assert totals["computation_time"] == \
                            report.total.computation_time


# -- what a trace records -----------------------------------------------------
_STREAM = [
    (1e-6, "section_begin", "solve"),
    (1e-6, "call_enter", "MPI_Isend"),
    (1e-6, "xfer_begin", 0, 50_000),
    (1e-6, "call_exit", "MPI_Isend"),
    (1e-4, "pause_resume"),
    (1e-6, "call_enter", "MPI_Wait"),
    (1e-6, "xfer_end", 0, 50_000),
    (1e-6, "xfer_end", 1, 4096.5),
    (1e-6, "call_exit", "MPI_Wait"),
    (1e-6, "section_end", "solve"),
]


@pytest.mark.parametrize("ring", [False, True], ids=["drain", "ring"])
@pytest.mark.parametrize("capacity", [1, 3, 4096])
def test_an_attached_sink_records_every_stamp_from_attach_on(capacity, ring):
    clock = _Clock()
    monitor = Monitor(clock, _TABLE, queue_capacity=capacity, ring_mode=ring)
    monitor.call_enter("before")  # stamped before attach: not the sink's
    sink = TraceSink()
    sink.attach(monitor)
    expected = _drive(monitor, clock, [(0.0, "call_exit", "before")] + _STREAM)
    monitor.finalize()

    events = sink.events
    assert type(events) is list and len(events) == len(sink) == len(_STREAM) + 1
    assert all(type(e) is TimedEvent and type(e.kind) is EventKind
               and type(e.time) is float and type(e.a) is int
               and type(e.b) is int for e in events)
    assert events == expected
    assert events[0] == TimedEvent(K.CALL_EXIT, 0.0, 0, 0)
    assert events[-1].time == clock.now
    assert TraceSink.loads(sink.dumps()) == events


def test_run_app_telemetry_events_are_the_stamped_stream():
    """``telemetry.per_rank[i].events``: a list of ``TimedEvent``, complete,
    in order -- drained batches lose nothing against per-event capture
    (every record goes through ``Monitor.stamp``; the test wraps it)."""
    import dataclasses

    from repro.experiments.halo import halo_app
    from repro.mpisim.config import mvapich2_like
    from repro.runtime import run_app
    from repro.telemetry.collect import TelemetryConfig

    seen: dict[int, list[TimedEvent]] = {}

    def tapped(ctx, *args):
        monitor, stamps = ctx.monitor, []
        seen[ctx.rank] = stamps
        stamp = monitor.stamp

        def observed(kind, a, b):
            stamp(kind, a, b)
            stamps.append(TimedEvent(K(kind), monitor._clock.now, a, b))

        monitor.stamp = observed
        return (yield from halo_app(ctx, *args))

    # A 16-slot queue drains dozens of times per rank.
    config = dataclasses.replace(mvapich2_like(), queue_capacity=16)
    result = run_app(tapped, 4, config, app_args=(6, 4096.0, 20e-6),
                     telemetry=TelemetryConfig(collect_trace=True))
    for rank_telemetry in result.telemetry.per_rank:
        rank = rank_telemetry.rank
        events = rank_telemetry.events
        assert type(events) is list
        assert len(events) == result.reports[rank].event_count > 16
        assert all(type(e) is TimedEvent and type(e.kind) is EventKind
                   for e in events)
        # MPI_Init is stamped before the application (and its tap) starts.
        assert [e.kind for e in events[:2]] == [K.CALL_ENTER, K.CALL_EXIT]
        assert events[2:] == seen[rank]
        assert events[-1].time == max(e.time for e in events)


def test_run_app_telemetry_on_a_ring_traces_every_stamp():
    """A ring-mode monitor keeps only its newest stamps for the report, but
    the trace sink tapping its queue still records all of them, in order."""
    from repro.experiments.nas_char import nas_cell
    from repro.faults import arm_faults
    from repro.runtime import run_app
    from repro.telemetry.collect import TelemetryConfig

    app, config, app_args = nas_cell("lu", "S", 1)
    params, config, watchdog = arm_faults("ring=64", 0, config)
    result = run_app(app, 2, config=config, params=params, app_args=app_args,
                     watchdog=watchdog, telemetry=TelemetryConfig())
    healthy = run_app(app, 2, config=config, app_args=app_args,
                      telemetry=TelemetryConfig())
    assert result.watchdog is None
    for rank_telemetry in result.telemetry.per_rank:
        rank = rank_telemetry.rank
        events = rank_telemetry.events
        assert result.reports[rank].event_count > 64  # the ring wrapped
        assert len(events) == result.reports[rank].event_count
        assert events == healthy.telemetry.per_rank[rank].events
