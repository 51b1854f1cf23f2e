"""Property-based tests (hypothesis) for the core instrumentation framework.

The central invariants: the derived bounds always nest
(0 <= min <= max <= data transfer time), interval attribution conserves
the stream's time span, the size-range breakdown partitions the totals,
and the circular queue never loses or reorders events.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.equeue import CircularEventQueue
from repro.core.events import EventKind, TimedEvent
from repro.core.measures import SizeBins
from repro.core.processor import DataProcessor
from repro.core.xfer_table import XferTable

TABLE = XferTable.from_model(latency=2e-6, bandwidth=500e6)


# ---------------------------------------------------------------------------
# Random-but-valid event stream generation
# ---------------------------------------------------------------------------
# Action alphabet: each action advances the clock by a random positive step
# and appends structurally valid events (calls balance, xfer ids are fresh
# or open, sections nest).
_ACTION = st.tuples(
    st.sampled_from(["call", "xfer_in_call", "xfer_split", "end_only", "orphan_begin"]),
    st.floats(min_value=1e-7, max_value=1e-3, allow_nan=False),
    st.integers(min_value=1, max_value=1 << 22),
)


def _build_stream(actions):
    """Fold actions into a time-ordered, structurally valid event list."""
    events = []
    t = 0.0
    next_id = 0

    def step(dt):
        nonlocal t
        t += dt
        return t

    for kind, dt, nbytes in actions:
        if kind == "call":
            events.append(TimedEvent(EventKind.CALL_ENTER, step(dt), 0, 0))
            events.append(TimedEvent(EventKind.CALL_EXIT, step(dt), 0, 0))
        elif kind == "xfer_in_call":
            xid = next_id = next_id + 1
            events.append(TimedEvent(EventKind.CALL_ENTER, step(dt), 0, 0))
            events.append(TimedEvent(EventKind.XFER_BEGIN, step(dt), xid, nbytes))
            events.append(TimedEvent(EventKind.XFER_END, step(dt), xid, nbytes))
            events.append(TimedEvent(EventKind.CALL_EXIT, step(dt), 0, 0))
        elif kind == "xfer_split":
            xid = next_id = next_id + 1
            events.append(TimedEvent(EventKind.CALL_ENTER, step(dt), 0, 0))
            events.append(TimedEvent(EventKind.XFER_BEGIN, step(dt), xid, nbytes))
            events.append(TimedEvent(EventKind.CALL_EXIT, step(dt), 0, 0))
            events.append(TimedEvent(EventKind.CALL_ENTER, step(dt), 0, 0))
            events.append(TimedEvent(EventKind.XFER_END, step(dt), xid, nbytes))
            events.append(TimedEvent(EventKind.CALL_EXIT, step(dt), 0, 0))
        elif kind == "end_only":
            xid = next_id = next_id + 1
            events.append(TimedEvent(EventKind.CALL_ENTER, step(dt), 0, 0))
            events.append(TimedEvent(EventKind.XFER_END, step(dt), xid + (1 << 30), nbytes))
            events.append(TimedEvent(EventKind.CALL_EXIT, step(dt), 0, 0))
        elif kind == "orphan_begin":
            xid = next_id = next_id + 1
            events.append(TimedEvent(EventKind.CALL_ENTER, step(dt), 0, 0))
            events.append(TimedEvent(EventKind.XFER_BEGIN, step(dt), xid, nbytes))
            events.append(TimedEvent(EventKind.CALL_EXIT, step(dt), 0, 0))
    return events, t


streams = st.lists(_ACTION, min_size=1, max_size=40).map(_build_stream)


class TestProcessorInvariants:
    @given(streams)
    @settings(max_examples=150, deadline=None)
    def test_bounds_always_nest(self, stream):
        events, end = stream
        proc = DataProcessor(TABLE)
        proc.process(events)
        proc.finalize(end)
        m = proc.total
        assert 0.0 <= m.min_overlap_time <= m.max_overlap_time + 1e-12
        assert m.max_overlap_time <= m.data_transfer_time + 1e-9

    @given(streams)
    @settings(max_examples=150, deadline=None)
    def test_interval_attribution_conserves_span(self, stream):
        events, end = stream
        proc = DataProcessor(TABLE)
        proc.process(events)
        proc.finalize(end)
        m = proc.total
        span = end - events[0].time
        assert m.computation_time + m.communication_call_time == pytest.approx(
            span, rel=1e-9, abs=1e-12
        )

    @given(streams)
    @settings(max_examples=100, deadline=None)
    def test_case_counts_sum_to_transfer_count(self, stream):
        events, end = stream
        proc = DataProcessor(TABLE)
        proc.process(events)
        proc.finalize(end)
        m = proc.total
        assert sum(m.case_counts.values()) == m.transfer_count

    @given(streams)
    @settings(max_examples=100, deadline=None)
    def test_bins_partition_totals(self, stream):
        events, end = stream
        proc = DataProcessor(TABLE)
        proc.process(events)
        proc.finalize(end)
        m = proc.total
        assert sum(b.count for b in m.bins.bins) == m.transfer_count
        assert sum(b.xfer_time for b in m.bins.bins) == pytest.approx(
            m.data_transfer_time, rel=1e-9, abs=1e-15
        )
        assert sum(b.min_overlap for b in m.bins.bins) == pytest.approx(
            m.min_overlap_time, rel=1e-9, abs=1e-15
        )
        assert sum(b.max_overlap for b in m.bins.bins) == pytest.approx(
            m.max_overlap_time, rel=1e-9, abs=1e-15
        )

    @given(streams, st.integers(min_value=1, max_value=64))
    @settings(max_examples=100, deadline=None)
    def test_queue_capacity_never_changes_results(self, stream, capacity):
        """The Fig.-2 design invariant: drain frequency is irrelevant."""
        events, end = stream
        direct = DataProcessor(TABLE)
        direct.process(events)
        direct.finalize(end)

        chunked = DataProcessor(TABLE)
        queue = CircularEventQueue(capacity, chunked.process)
        for ev in events:
            queue.append(*ev)
        queue.flush()
        chunked.finalize(end)

        assert chunked.total.min_overlap_time == direct.total.min_overlap_time
        assert chunked.total.max_overlap_time == direct.total.max_overlap_time
        assert chunked.total.data_transfer_time == direct.total.data_transfer_time
        assert chunked.total.computation_time == direct.total.computation_time
        assert chunked.total.case_counts == direct.total.case_counts


class TestQueueProperties:
    @given(
        st.lists(st.floats(min_value=0, max_value=1e3, allow_nan=False), max_size=200),
        st.integers(min_value=1, max_value=17),
    )
    @settings(max_examples=100, deadline=None)
    def test_no_loss_no_reorder(self, times, capacity):
        seen = []
        q = CircularEventQueue(capacity, seen.extend)
        pushed = [
            TimedEvent(EventKind.XFER_BEGIN, t, i, 1) for i, t in enumerate(times)
        ]
        for ev in pushed:
            q.append(*ev)
        q.flush()
        assert seen == pushed


class TestXferTableProperties:
    @given(
        st.lists(
            st.floats(min_value=1.0, max_value=1e8, allow_nan=False),
            min_size=2,
            max_size=20,
            unique=True,
        ),
        st.floats(min_value=0.0, max_value=2e8, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_interpolation_between_neighbors(self, sizes, query):
        sizes = sorted(sizes)
        # Affine times guarantee monotonicity.
        times = [1e-6 + s / 1e9 for s in sizes]
        table = XferTable(sizes, times)
        t = table.time_for(query)
        assert t >= 0.0
        if sizes[0] <= query <= sizes[-1]:
            assert times[0] - 1e-15 <= t <= times[-1] + 1e-15

    @given(
        st.lists(
            st.floats(min_value=1.0, max_value=1e8, allow_nan=False),
            min_size=1,
            max_size=20,
            unique=True,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_serialization_roundtrip(self, sizes):
        sizes = sorted(sizes)
        times = [1e-6 + s / 7e8 for s in sizes]
        table = XferTable(sizes, times)
        assert XferTable.loads(table.dumps()) == table

    @given(st.floats(min_value=0, max_value=1e9, allow_nan=False),
           st.floats(min_value=0, max_value=1e9, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_size(self, a, b):
        table = XferTable.from_model(latency=3e-6, bandwidth=9e8)
        lo, hi = min(a, b), max(a, b)
        assert table.time_for(lo) <= table.time_for(hi) + 1e-15


class TestSizeBinsProperties:
    @given(
        st.lists(
            st.floats(min_value=1.0, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=8,
            unique=True,
        ),
        st.floats(min_value=0.0, max_value=2e9, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_size_falls_in_exactly_one_bin(self, edges, size):
        bins = SizeBins(sorted(edges))
        idx = bins.index_for(size)
        assert 0 <= idx <= len(edges)
        lo = 0.0 if idx == 0 else sorted(edges)[idx - 1]
        hi = sorted(edges)[idx] if idx < len(edges) else float("inf")
        assert lo <= size < hi

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1, max_value=1e6, allow_nan=False),
                st.floats(min_value=1e-9, max_value=1e-2, allow_nan=False),
            ),
            max_size=50,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_combined_accumulation(self, items):
        half = len(items) // 2
        a, b, combined = SizeBins(), SizeBins(), SizeBins()
        for i, (size, xfer) in enumerate(items):
            target = a if i < half else b
            target.add(size, xfer, xfer * 0.25, xfer * 0.5)
            combined.add(size, xfer, xfer * 0.25, xfer * 0.5)
        a.merge(b)
        for mine, ref in zip(a.bins, combined.bins):
            assert mine.count == ref.count
            assert mine.xfer_time == pytest.approx(ref.xfer_time)
            assert mine.min_overlap == pytest.approx(ref.min_overlap)
