"""Tests for the PERUSE subscription hub, trace sink, and report diffing."""

import pytest

from repro.core import (
    EventKind,
    Monitor,
    TraceSink,
    XferTable,
    diff_reports,
    render_diff,
    replay_overlap,
)
from repro.core.peruse import PeruseHub
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


class TestPeruseHub:
    def test_kind_filtered_subscription(self, monitor):
        begins = []
        monitor.peruse.subscribe(begins.append, kind=EventKind.XFER_BEGIN)
        with monitor.call("c"):
            xid = monitor.xfer_begin(100)
            monitor.xfer_end(xid, 100)
        assert len(begins) == 1
        assert begins[0].kind == EventKind.XFER_BEGIN
        assert begins[0].b == 100

    def test_all_events_subscription(self, monitor):
        seen = []
        monitor.peruse.subscribe(seen.append)
        with monitor.call("c"):
            pass
        assert [e.kind for e in seen] == [EventKind.CALL_ENTER, EventKind.CALL_EXIT]

    def test_cancel_stops_delivery(self, monitor):
        seen = []
        sub = monitor.peruse.subscribe(seen.append)
        monitor.call_enter("a")
        sub.cancel()
        sub.cancel()  # idempotent
        monitor.call_exit("a")
        assert len(seen) == 1

    def test_multiple_subscribers_in_order(self, monitor):
        order = []
        monitor.peruse.subscribe(lambda e: order.append("kind"),
                                 kind=EventKind.CALL_ENTER)
        monitor.peruse.subscribe(lambda e: order.append("all"))
        monitor.call_enter("a")
        assert order == ["kind", "all"]

    def test_dispatch_counter_and_no_subscribers(self):
        hub = PeruseHub()
        assert not hub.has_subscribers
        from repro.core.events import TimedEvent

        hub.dispatch(TimedEvent(EventKind.CALL_ENTER, 0.0, 0, 0))
        assert hub.dispatched == 0  # short-circuit without subscribers
        hub.subscribe(lambda e: None)
        hub.dispatch(TimedEvent(EventKind.CALL_ENTER, 0.0, 0, 0))
        assert hub.dispatched == 1


    def test_cancelled_kind_subscription_leaves_no_bucket_behind(self):
        """Regression: ``_remove`` left ``{kind: []}`` behind, so the hub
        looked subscribed forever -- every later stamp paid a dispatch and
        ``dispatched`` counted events delivered to nobody."""
        from repro.metrics import MetricsRegistry

        reg = MetricsRegistry()
        mon = Monitor(FakeClock(), XferTable.from_model(1e-6, 1e9),
                      metrics=reg)
        hub = mon.peruse
        seen = []
        sub = hub.subscribe(seen.append, kind=EventKind.XFER_BEGIN)
        assert hub.has_subscribers
        mon.xfer_end(mon.xfer_begin(8), 8)
        assert len(seen) == 1 and hub.dispatched == 1  # the END reached nobody
        sub.cancel()
        assert not hub.has_subscribers
        for _ in range(500):
            mon.call_enter("c")
            mon.call_exit("c")
        assert hub.dispatched == 1
        assert len(seen) == 1
        by_name = {f.name: f.samples[0].value for f in reg.collect()
                   if f.name.startswith("repro_peruse")}
        assert by_name["repro_peruse_subscribers"] == 0.0
        assert by_name["repro_peruse_dispatched"] == 1.0
        assert by_name["repro_peruse_dispatch_seconds"].count == 1

    def test_hub_stays_subscribed_while_any_subscription_is_live(self, monitor):
        hub = monitor.peruse
        first = hub.subscribe(lambda e: None, kind=EventKind.CALL_ENTER)
        second = hub.subscribe(lambda e: None, kind=EventKind.CALL_ENTER)
        everything = hub.subscribe(lambda e: None)
        first.cancel()
        assert hub.has_subscribers
        second.cancel()
        assert hub.has_subscribers
        everything.cancel()
        assert not hub.has_subscribers


class TestTraceSink:
    def _record_stream(self, monitor):
        sink = TraceSink()
        monitor.peruse.subscribe(sink)
        clock = monitor._clock
        with monitor.call("MPI_Isend"):
            clock.advance(1e-6)
            xid = monitor.xfer_begin(50_000)
        clock.advance(100e-6)
        with monitor.call("MPI_Wait"):
            clock.advance(1e-6)
            monitor.xfer_end(xid, 50_000)
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
        sink = TraceSink()
        for ev in events:
            sink(ev)
        assert TraceSink.loads(sink.dumps()) == sink.events
        assert sink.nbytes_estimate == RECORD_NBYTES * len(events)

    def test_section_events_roundtrip_explicitly(self, monitor):
        sink = TraceSink()
        monitor.peruse.subscribe(sink)
        with monitor.section("solver"):
            with monitor.call("MPI_Isend"):
                xid = monitor.xfer_begin(4096)
                monitor.xfer_end(xid, 4096)
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
