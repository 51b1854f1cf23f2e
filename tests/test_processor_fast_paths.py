"""The digest loop's fast paths, pinned against the O(active) oracle.

``DataProcessor._digest`` resolves transfers inline and takes shortcuts
where a clock is one float: ``dt`` joins it by two-sum, and a window
against an empty or one-float snapshot is one correctly rounded
subtraction (what ``math.fsum`` of the two returns).  The streams here are
built to reach every one of those branches and the general ones next to
them -- continuous durations from 1e-9 to 1e3 (so two-sums leave a low
part and clocks grow past one float), transfers begun while others are in
flight (non-empty snapshots), sections open across transfers, and the
windowed processor's batch cuts -- and every number must equal
:class:`tests.processor_reference.ReferenceDataProcessor`'s.  Malformed
streams must fail with the oracle's message and leave the oracle's state.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import DataProcessor, XferTable
from repro.core.events import EventKind, TimedEvent
from repro.core.processor import InstrumentationError
from repro.telemetry.windows import WindowedProcessor
from tests.processor_reference import ReferenceDataProcessor

K = EventKind
_TABLE = XferTable([1.0, 1024.0, 65536.0, 1048576.0], [2e-6, 1e-5, 1e-4, 1e-3])
_NBYTES = (1, 7, 512, 4096, 123456, 9_000_000)  # stamped sizes are ints
_DT = st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1e3),
                st.floats(min_value=1e-9, max_value=1e-5))


@st.composite
def streams(draw) -> "list[TimedEvent]":
    """A valid stream that keeps transfers overlapping and sections open."""
    t = 0.0
    depth = 0
    sections: "list[int]" = []
    active: "dict[int, float]" = {}
    next_id = 0
    events: "list[TimedEvent]" = []
    for _ in range(draw(st.integers(min_value=4, max_value=60))):
        t += draw(_DT)
        choices = ["call_enter", "xfer_begin", "xfer_begin", "xfer_end_only",
                   "reset"]
        if depth:
            choices += ["call_exit", "call_exit"]
        if active:
            choices += ["xfer_end", "xfer_end"]
        if len(sections) < 3:
            choices.append("section_begin")
        if sections:
            choices.append("section_end")
        op = draw(st.sampled_from(choices))
        if op == "call_enter":
            events.append(TimedEvent(K.CALL_ENTER, t, draw(
                st.integers(min_value=0, max_value=3)), 0))
            depth += 1
        elif op == "call_exit":
            events.append(TimedEvent(K.CALL_EXIT, t, 0, 0))
            depth -= 1
        elif op == "xfer_begin":
            active[next_id] = nbytes = draw(st.sampled_from(_NBYTES))
            events.append(TimedEvent(K.XFER_BEGIN, t, next_id, nbytes))
            next_id += 1
        elif op == "xfer_end":
            ident = draw(st.sampled_from(sorted(active)))
            nbytes = active.pop(ident)
            events.append(TimedEvent(K.XFER_END, t, ident, draw(
                st.sampled_from((nbytes, 0)))))
        elif op == "xfer_end_only":
            events.append(TimedEvent(K.XFER_END, t, next_id, draw(
                st.sampled_from(_NBYTES))))
            next_id += 1
        elif op == "section_begin":
            sec = draw(st.integers(min_value=0, max_value=3))
            if sec not in sections:
                sections.append(sec)
                events.append(TimedEvent(K.SECTION_BEGIN, t, sec, 0))
        elif op == "section_end":
            events.append(TimedEvent(K.SECTION_END, t, sections.pop(), 0))
        else:
            events.append(TimedEvent(K.RESET, t, 0, 0))
    return events


def _measures(proc) -> dict:
    return {
        "total": proc.total.to_dict(),
        "sections": {k: m.to_dict() for k, m in sorted(proc.sections.items())},
        "calls": {k: (s.count, s.total_time)
                  for k, s in sorted(proc.call_stats.items())},
    }


def _feed(proc, events, cuts) -> None:
    """``process`` the stream in batches ending at the sorted ``cuts``."""
    start = 0
    for cut in [*cuts, len(events)]:
        if cut > start:
            proc.process(events[start:cut])
            start = cut


_cuts = st.lists(st.integers(min_value=0, max_value=60), max_size=6).map(sorted)


@settings(max_examples=80, deadline=None)
@given(events=streams(), cuts=_cuts, tail=_DT)
def test_digest_is_the_oracle_bit_for_bit(events, cuts, tail):
    end_time = (events[-1].time if events else 0.0) + tail
    fast, ref = DataProcessor(_TABLE), ReferenceDataProcessor(_TABLE)
    _feed(fast, events, cuts)
    ref.process(events)
    assert (fast._depth, fast._last_time, fast._call_seq) == (
        ref._depth, ref._last_time, ref._call_seq)
    fast.finalize(end_time)
    ref.finalize(end_time)
    assert _measures(fast) == _measures(ref)


def _reference_windows(events, width, end_time) -> list:
    """Each window's cumulative snapshot, from the oracle: a window closes
    before the first non-RESET event later than its boundary."""
    ref = ReferenceDataProcessor(_TABLE)
    closed = []

    def close_before(t):
        while t > (len(closed) + 1) * width:
            m = ref.total
            closed.append(((m.data_transfer_time, m.min_overlap_time,
                            m.max_overlap_time, m.computation_time,
                            m.communication_call_time), m.transfer_count))

    for ev in events:
        if ev.kind != K.RESET:
            close_before(ev.time)
        ref.process([ev])
    close_before(end_time)
    ref.finalize(end_time)
    closed.append(None)  # the trailing window: compared via the totals
    return closed, _measures(ref)


@settings(max_examples=60, deadline=None)
@given(events=streams(), cuts=_cuts, tail=_DT,
       nwin=st.integers(min_value=1, max_value=12))
def test_windowed_digest_is_the_oracle_at_every_boundary(events, cuts, tail,
                                                        nwin):
    end_time = (events[-1].time if events else 0.0) + tail
    width = max(end_time, 1e-9) / nwin
    fast = WindowedProcessor(_TABLE, window_width=width, max_windows=10_000)
    _feed(fast, events, cuts)
    fast.finalize(end_time)
    expected, totals = _reference_windows(events, width, end_time)
    assert _measures(fast) == totals
    got = [(w.cum, w.transfers) for w in fast.series().windows]
    if fast._last_time is None:
        assert got == [] and expected == [None]
        return
    assert got[:-1] == expected[:-1]
    final = fast.total
    assert got[-1][0] == (final.data_transfer_time, final.min_overlap_time,
                          final.max_overlap_time, final.computation_time,
                          final.communication_call_time)


def test_the_streams_reach_every_fast_path_and_its_general_neighbour():
    """One stream, all branches: a one-float clock gaining a low part, a
    clock longer than one float (general sum and fsum window), windows
    against empty and one-float snapshots, a section open across a
    transfer."""
    events = [
        TimedEvent(K.SECTION_BEGIN, 0.0, 1, 0),
        TimedEvent(K.XFER_BEGIN, 0.0, 0, 4096),   # empty snapshots
        TimedEvent(K.CALL_ENTER, 0.3, 0, 0),      # clock [] -> [0.3]
        TimedEvent(K.XFER_BEGIN, 0.3, 1, 512),    # one-float snapshot
        TimedEvent(K.CALL_EXIT, 0.4, 0, 0),
        TimedEvent(K.CALL_ENTER, 0.7, 0, 0),      # [0.3] + 0.3: a low part
        TimedEvent(K.XFER_END, 0.8, 1, 512),      # two-float clock: fsum
        TimedEvent(K.CALL_EXIT, 0.85, 0, 0),
        TimedEvent(K.XFER_BEGIN, 0.85, 2, 7),     # two-float snapshot
        TimedEvent(K.XFER_END, 0.9, 0, 0),
        TimedEvent(K.XFER_END, 0.95, 2, 7),
        TimedEvent(K.SECTION_END, 1.0, 1, 0),
    ]
    fast, ref = DataProcessor(_TABLE), ReferenceDataProcessor(_TABLE)
    fast.process(events[:6])
    assert len(fast._comp_clock) == 2  # 0.3 + 0.3 left a low part
    fast.process(events[6:])
    ref.process(events)
    fast.finalize(1.0)
    ref.finalize(1.0)
    assert _measures(fast) == _measures(ref)
    assert fast.sections[1].transfer_count == 3


# -- malformed streams -----------------------------------------------------------

_BROKEN = ("backwards", "orphan_exit", "duplicate_begin", "size_mismatch",
           "unknown_kind")


def _break(events: "list[TimedEvent]", how: str) -> "list[TimedEvent]":
    """Append rows that end ``events`` with the malformation ``how``."""
    t = max([ev.time for ev in events], default=0.0)
    rows = list(events)
    depth = sum(+1 if ev.kind == K.CALL_ENTER else -1 for ev in events
                if ev.kind in (K.CALL_ENTER, K.CALL_EXIT))
    active = {}
    for ev in events:
        if ev.kind == K.XFER_BEGIN:
            active[ev.a] = ev.b
        elif ev.kind == K.XFER_END:
            active.pop(ev.a, None)
    if how == "backwards":
        rows.append(TimedEvent(K.CALL_ENTER, t, 0, 0))
        rows.append(TimedEvent(K.CALL_ENTER, t - 1.0, 0, 0))
    elif how == "orphan_exit":
        rows += [TimedEvent(K.CALL_EXIT, t, 0, 0)] * (depth + 1)
    elif how in ("duplicate_begin", "size_mismatch"):
        if not active:
            rows.append(TimedEvent(K.XFER_BEGIN, t, 10_000, 512.0))
            active[10_000] = 512.0
        ident, nbytes = sorted(active.items())[0]
        if how == "duplicate_begin":
            rows.append(TimedEvent(K.XFER_BEGIN, t + 1e-6, ident, nbytes))
        else:
            rows.append(TimedEvent(K.XFER_END, t + 1e-6, ident, nbytes + 1.0))
    else:
        rows.append(TimedEvent(99, t + 1e-6, 0, 0))
    return rows


def _interval_ops(rows) -> int:
    last, ops = None, 0
    for kind, t, _a, _b in rows:
        if kind != K.RESET and last is not None and t - last > 0.0:
            ops += 1
        last = t
    return ops


@pytest.mark.parametrize("how", _BROKEN)
@settings(max_examples=25, deadline=None)
@given(events=streams(), cuts=_cuts)
def test_a_malformed_stream_fails_as_the_oracle_does(how, events, cuts):
    rows = _break(events, how)
    fast, ref = DataProcessor(_TABLE), ReferenceDataProcessor(_TABLE)
    with pytest.raises(InstrumentationError) as fast_error:
        _feed(fast, rows, [c for c in cuts if c < len(rows)])
    with pytest.raises(InstrumentationError) as ref_error:
        ref.process(rows)
    assert str(fast_error.value) == str(ref_error.value)
    assert (fast._depth, fast._last_time, fast._call_seq) == (
        ref._depth, ref._last_time, ref._call_seq)
    assert fast.interval_ops == _interval_ops(rows)
    assert sorted(fast._active) == sorted(ref._active)


def test_the_error_messages():
    messages = {}
    for how in _BROKEN:
        with pytest.raises(InstrumentationError) as error:
            DataProcessor(_TABLE).process(_break(
                [TimedEvent(K.CALL_ENTER, 1.0, 0, 0)], how))
        messages[how] = str(error.value)
    assert messages == {
        "backwards": "event stream goes backwards in time: 1.0 -> 0.0",
        "orphan_exit": "CALL_EXIT without a matching CALL_ENTER",
        "duplicate_begin": "duplicate XFER_BEGIN for transfer 10000",
        "size_mismatch": "transfer 10000 size mismatch: begin=512.0 end=513.0",
        "unknown_kind": "unknown event kind 99",
    }

