"""Tests for the trace sink and report diffing."""

import pytest

from repro.core import (
    EventColumns,
    EventKind,
    Monitor,
    TraceSink,
    XferTable,
    diff_reports,
    render_diff,
    replay_overlap,
)
from repro.core.trace import RECORD_NBYTES
from repro.mpisim.config import mvapich2_like
from repro.nas.base import CpuModel
from repro.nas.sp import sp_app
from repro.runtime import run_app


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def monitor():
    return Monitor(FakeClock(), XferTable.from_model(1e-6, 1e9))


class TestTraceSink:
    def _record_stream(self, monitor):
        sink = TraceSink()
        sink.attach(monitor)
        clock = monitor._clock
        monitor.call_enter("MPI_Isend")
        clock.advance(1e-6)
        xid = monitor.xfer_begin(50_000)
        monitor.call_exit("MPI_Isend")
        clock.advance(100e-6)
        monitor.call_enter("MPI_Wait")
        clock.advance(1e-6)
        monitor.xfer_end(xid, 50_000)
        monitor.call_exit("MPI_Wait")
        monitor.queue.flush()  # the sink records what the queue hands on
        return sink

    def test_records_all_events(self, monitor):
        sink = self._record_stream(monitor)
        assert len(sink) == 6
        assert sink.nbytes_estimate == 6 * RECORD_NBYTES == 6 * 25

    def test_roundtrip_through_file(self, monitor, tmp_path):
        sink = self._record_stream(monitor)
        path = tmp_path / "trace.tsv"
        sink.save(path)
        events = TraceSink.load(path)
        assert events == sink.events

    def test_loads_rejects_garbage(self):
        with pytest.raises(ValueError, match="malformed"):
            TraceSink.loads("1\t2\n")

    def test_replay_matches_live_pipeline(self, monitor):
        """The paper's no-tracing design loses nothing vs a full trace."""
        sink = self._record_stream(monitor)
        live = monitor.finalize()
        replayed = replay_overlap(
            sink.events, XferTable.from_model(1e-6, 1e9),
            end_time=monitor._clock.now,
        )
        assert replayed.total.min_overlap_time == live.total.min_overlap_time
        assert replayed.total.max_overlap_time == live.total.max_overlap_time
        assert replayed.total.data_transfer_time == live.total.data_transfer_time
        assert replayed.total.computation_time == live.total.computation_time
        assert replayed.total.case_counts == live.total.case_counts


class TestTraceSinkProperty:
    """Round-trip property: dumps -> loads is the identity on event lists."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    from repro.core.events import TimedEvent

    timed_events = st.builds(
        TimedEvent,
        kind=st.sampled_from(list(EventKind)),
        time=st.floats(min_value=0.0, max_value=1e6,
                       allow_nan=False, allow_infinity=False),
        a=st.integers(min_value=0, max_value=2**31 - 1),
        b=st.integers(min_value=0, max_value=2**31 - 1),
    )

    @given(events=st.lists(timed_events, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_dumps_loads_roundtrip(self, events):
        cols = EventColumns()
        for ev in events:
            cols.append(*ev)
        sink = TraceSink()
        sink.extend(cols)
        assert TraceSink.loads(sink.dumps()) == sink.events
        assert sink.nbytes_estimate == RECORD_NBYTES * len(events)

    def test_section_events_roundtrip_explicitly(self, monitor):
        sink = TraceSink()
        sink.attach(monitor)
        with monitor.section("solver"):
            monitor.call_enter("MPI_Isend")
            xid = monitor.xfer_begin(4096)
            monitor.xfer_end(xid, 4096)
            monitor.call_exit("MPI_Isend")
        monitor.finalize()
        kinds = [e.kind for e in sink.events]
        assert EventKind.SECTION_BEGIN in kinds
        assert EventKind.SECTION_END in kinds
        assert TraceSink.loads(sink.dumps()) == sink.events


class TestDiff:
    @pytest.fixture(scope="class")
    def pair(self):
        runs = {}
        for modified in (False, True):
            result = run_app(
                sp_app, 4, config=mvapich2_like(),
                app_args=("S", 1, CpuModel(5e9), modified),
            )
            runs[modified] = result.report(0)
        return runs

    def test_diff_includes_total_and_sections(self, pair):
        deltas = diff_reports(pair[False], pair[True])
        scopes = [d.scope for d in deltas]
        assert scopes[0] == "<total>"
        assert "solve_overlap" in scopes

    def test_improvement_detected(self, pair):
        deltas = {d.scope: d for d in diff_reports(pair[False], pair[True])}
        section = deltas["solve_overlap"]
        assert section.max_pct_delta > 0
        assert section.improved
        assert section.call_time_delta_pct < 0  # less time in the library

    def test_render_diff_text(self, pair):
        text = render_diff(diff_reports(pair[False], pair[True]), title="SP")
        assert "SP" in text
        assert "<total>" in text
        assert "improved" in text

    def test_no_change_is_not_improvement(self, pair):
        deltas = diff_reports(pair[False], pair[False])
        assert all(not d.improved for d in deltas)
        assert all(d.call_time_delta_pct == pytest.approx(0.0) for d in deltas)
