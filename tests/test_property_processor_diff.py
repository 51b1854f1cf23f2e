"""Differential property test: optimized processor vs reference.

:class:`repro.core.DataProcessor` attributes intervals with O(1)
cumulative clocks (exact Shewchuk partial sums) and recovers each
transfer's interleaved computation / in-call windows by subtraction;
:class:`tests.processor_reference.ReferenceDataProcessor` does the straightforward
O(active) walk, accumulating a per-transfer interval list and summing it
with ``math.fsum``.  Both compute the *correctly rounded* value of the
same exact real sum, so their outputs must be **bit-identical** -- not
merely approximately equal.  Hypothesis drives randomly generated valid
event streams (nested calls, all three bounding cases, monitoring
sections, RESET gaps, awkward float durations) through both and compares
every derived number with ``==``.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core import DataProcessor, XferTable
from repro.core.events import EventKind, TimedEvent
from tests.processor_reference import ReferenceDataProcessor

#: Durations chosen to stress float summation: many are not exactly
#: representable sums of each other, and the magnitudes span 12 orders.
_DT_POOL = (
    0.0,
    1e-18,
    1e-12,
    3.0000000000000004e-07,
    1e-6,
    2.5e-6,
    1.0000000000000002e-6,
    0.1,
    0.30000000000000004,
    7.7e-5,
)

_NBYTES_POOL = (1.0, 7.0, 512.0, 1024.0, 123456.0, 9.0e6)

_TABLE = XferTable(
    [1.0, 1024.0, 65536.0, 1048576.0],
    [2e-6, 1e-5, 1e-4, 1e-3],
)


@st.composite
def event_streams(draw) -> list[TimedEvent]:
    """A structurally valid, time-ordered instrumentation event stream."""
    n_ops = draw(st.integers(min_value=5, max_value=80))
    t = 0.0
    depth = 0
    sections: list[int] = []
    active: list[int] = []
    next_id = 0
    events: list[TimedEvent] = []

    for _ in range(n_ops):
        t += draw(st.sampled_from(_DT_POOL))
        choices = ["call_enter", "xfer_begin", "xfer_end_unmatched", "reset"]
        if depth > 0:
            choices.append("call_exit")
            choices.append("call_exit")  # bias towards balanced calls
        if active:
            choices.append("xfer_end")
            choices.append("xfer_end")
        if len(sections) < 3:
            choices.append("section_begin")
        if sections:
            choices.append("section_end")
        op = draw(st.sampled_from(choices))

        if op == "call_enter":
            name = draw(st.integers(min_value=0, max_value=4))
            events.append(TimedEvent(EventKind.CALL_ENTER, t, name, 0))
            depth += 1
        elif op == "call_exit":
            events.append(TimedEvent(EventKind.CALL_EXIT, t, 0, 0))
            depth -= 1
        elif op == "xfer_begin":
            nbytes = draw(st.sampled_from(_NBYTES_POOL))
            events.append(TimedEvent(EventKind.XFER_BEGIN, t, next_id, nbytes))
            active.append(next_id)
            next_id += 1
        elif op == "xfer_end":
            idx = draw(st.integers(min_value=0, max_value=len(active) - 1))
            ident = active.pop(idx)
            # Zero means "size unknown at end" (allowed by the processor).
            nbytes = draw(st.sampled_from((0.0, None)))
            end_b = events_nbytes(events, ident) if nbytes is None else 0.0
            events.append(TimedEvent(EventKind.XFER_END, t, ident, end_b))
        elif op == "xfer_end_unmatched":
            # Case 3: END without BEGIN (eager receiver).
            nbytes = draw(st.sampled_from(_NBYTES_POOL))
            events.append(TimedEvent(EventKind.XFER_END, t, next_id, nbytes))
            next_id += 1
        elif op == "section_begin":
            sec = draw(st.integers(min_value=0, max_value=2))
            if sec not in sections:
                events.append(TimedEvent(EventKind.SECTION_BEGIN, t, sec, 0))
                sections.append(sec)
        elif op == "section_end":
            events.append(TimedEvent(EventKind.SECTION_END, t, sections.pop(), 0))
        elif op == "reset":
            # Monitoring pause: the gap before the next event is dropped.
            events.append(TimedEvent(EventKind.RESET, t, 0, 0))
    return events


def events_nbytes(events: list[TimedEvent], ident: int) -> float:
    for ev in events:
        if ev.kind == EventKind.XFER_BEGIN and ev.a == ident:
            return ev.b
    raise AssertionError(f"no XFER_BEGIN for {ident}")


def _run(proc, events: list[TimedEvent], batch_len: int, end_time: float):
    for i in range(0, len(events), batch_len):
        proc.process(events[i : i + batch_len])
    proc.finalize(end_time)


def _snapshot(proc) -> dict:
    return {
        "total": proc.total.to_dict(),
        "sections": {k: m.to_dict() for k, m in sorted(proc.sections.items())},
        "calls": {
            k: (s.count, s.total_time) for k, s in sorted(proc.call_stats.items())
        },
    }


@settings(max_examples=60, deadline=None)
@given(
    events=event_streams(),
    batch_len=st.integers(min_value=1, max_value=17),
    tail=st.sampled_from(_DT_POOL),
)
def test_optimized_processor_bit_identical_to_reference(events, batch_len, tail):
    end_time = (events[-1].time if events else 0.0) + tail
    fast = DataProcessor(_TABLE)
    ref = ReferenceDataProcessor(_TABLE)
    _run(fast, events, batch_len, end_time)
    _run(ref, events, len(events) or 1, end_time)  # batching must not matter
    assert _snapshot(fast) == _snapshot(ref)


def test_known_stream_matches_reference_exactly():
    """A hand-built stream covering all three cases, deterministically."""
    E = EventKind
    events = [
        TimedEvent(E.SECTION_BEGIN, 0.0, 7, 0),
        TimedEvent(E.CALL_ENTER, 1e-6, 1, 0),
        TimedEvent(E.XFER_BEGIN, 2e-6, 0, 1024.0),  # split-call (case 2)
        TimedEvent(E.XFER_BEGIN, 2e-6, 1, 512.0),  # same-call (case 1)
        TimedEvent(E.XFER_END, 2.5e-6, 1, 512.0),
        TimedEvent(E.CALL_EXIT, 3e-6, 0, 0),
        TimedEvent(E.RESET, 5e-6, 0, 0),
        TimedEvent(E.CALL_ENTER, 6e-6, 2, 0),
        TimedEvent(E.XFER_END, 7.3e-6, 0, 1024.0),
        TimedEvent(E.XFER_END, 7.4e-6, 99, 9.0e6),  # one-event (case 3)
        TimedEvent(E.CALL_EXIT, 8e-6, 0, 0),
        TimedEvent(E.SECTION_END, 9e-6, 7, 0),
        TimedEvent(E.XFER_BEGIN, 9.5e-6, 5, 7.0),  # still active at finalize
    ]
    fast = DataProcessor(_TABLE)
    ref = ReferenceDataProcessor(_TABLE)
    _run(fast, events, 3, 1e-5)
    _run(ref, events, len(events), 1e-5)
    snap = _snapshot(fast)
    assert snap == _snapshot(ref)
    counts = snap["total"]["case_counts"]
    assert counts == {"1": 1, "2": 1, "3": 2}
