"""Tests for the Monitor facade (stamping API, sections, pause, finalize)."""

import pytest

from repro.core.monitor import Monitor, NullMonitor
from repro.core.processor import InstrumentationError
from repro.core.xfer_table import XferTable


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def table():
    return XferTable.from_model(latency=1e-6, bandwidth=1e9)


@pytest.fixture
def monitor(clock, table):
    return Monitor(clock, table, queue_capacity=8)


def test_basic_isend_wait_scenario(monitor, clock, table):
    # Isend: 1us in library, xfer begins inside.
    monitor.call_enter("MPI_Isend")
    clock.advance(0.5e-6)
    xid = monitor.xfer_begin(10000)
    clock.advance(0.5e-6)
    monitor.call_exit("MPI_Isend")
    clock.advance(100e-6)  # computation
    monitor.call_enter("MPI_Wait")
    clock.advance(1e-6)
    monitor.xfer_end(xid, 10000)
    clock.advance(0.5e-6)
    monitor.call_exit("MPI_Wait")
    report = monitor.finalize(rank=0, label="unit")
    xfer = table.time_for(10000)
    assert report.total.max_overlap_time == pytest.approx(xfer)
    assert report.total.min_overlap_time == pytest.approx(xfer - 1.5e-6)
    assert report.total.computation_time == pytest.approx(100e-6)
    assert report.mean_call_time("MPI_Wait") == pytest.approx(1.5e-6)


def test_queue_drains_transparently(clock, table):
    # Capacity 2 forces a drain every second event; results must be identical.
    mon = Monitor(clock, table, queue_capacity=2)
    mon.call_enter("call")
    clock.advance(1e-6)
    xid = mon.xfer_begin(1000)
    mon.call_exit("call")
    clock.advance(50e-6)
    mon.call_enter("call")
    mon.xfer_end(xid, 1000)
    clock.advance(1e-6)
    mon.call_exit("call")
    report = mon.finalize()
    assert mon.queue.drains >= 2
    assert report.total.case_counts[2] == 1
    assert report.total.max_overlap_time == pytest.approx(table.time_for(1000))


def test_xfer_end_only_is_case3(monitor, clock, table):
    monitor.call_enter("MPI_Recv")
    clock.advance(5e-6)
    monitor.xfer_end_only(2000)
    monitor.call_exit("MPI_Recv")
    report = monitor.finalize()
    assert report.total.case_counts[3] == 1
    assert report.total.max_overlap_time == pytest.approx(table.time_for(2000))
    assert report.total.min_overlap_time == 0.0


def test_section_context_manager(monitor, clock, table):
    with monitor.section("x_solve"):
        monitor.call_enter("MPI_Isend")
        xid = monitor.xfer_begin(500)
        monitor.call_exit("MPI_Isend")
        clock.advance(30e-6)
        monitor.call_enter("MPI_Wait")
        monitor.xfer_end(xid, 500)
        monitor.call_exit("MPI_Wait")
    report = monitor.finalize()
    assert "x_solve" in report.sections
    sec = report.sections["x_solve"]
    assert sec.transfer_count == 1
    assert sec.computation_time == pytest.approx(30e-6)


def test_pause_drops_events_and_gap(monitor, clock, table):
    monitor.call_enter("a")
    clock.advance(1e-6)
    monitor.call_exit("a")
    monitor.pause()
    clock.advance(1000.0)  # huge gap, must not count
    # These stamps must be dropped entirely.
    monitor.call_enter("hidden")
    monitor.xfer_begin(10**6)
    monitor.call_exit("hidden")
    monitor.resume()
    clock.advance(2e-6)
    monitor.call_enter("b")
    clock.advance(1e-6)
    monitor.call_exit("b")
    report = monitor.finalize()
    assert report.total.computation_time == pytest.approx(2e-6)
    assert report.total.communication_call_time == pytest.approx(2e-6)
    assert report.total.transfer_count == 0
    assert "hidden" not in report.call_stats


def test_resume_when_not_paused_is_noop(monitor):
    monitor.resume()
    assert monitor.event_count == 0


def test_event_count_tracks_stamps(monitor, clock):
    monitor.call_enter("x")
    xid = monitor.xfer_begin(10)
    monitor.xfer_end(xid, 10)
    monitor.call_exit("x")
    assert monitor.event_count == 4


def test_finalize_twice_raises(monitor):
    monitor.finalize()
    with pytest.raises(InstrumentationError):
        monitor.finalize()


def test_stamp_after_finalize_raises(monitor):
    monitor.finalize()
    with pytest.raises(InstrumentationError):
        monitor.call_enter("late")


def test_xfer_ids_are_unique(monitor):
    ids = {monitor.xfer_begin(8) for _ in range(100)}
    ids.add(monitor.xfer_begin(8, xfer_id=None))
    assert len(ids) == 101


def test_report_wall_time(clock, table):
    clock.advance(5.0)
    mon = Monitor(clock, table)
    clock.advance(2.5)
    report = mon.finalize()
    assert report.wall_time == pytest.approx(2.5)


def test_null_monitor_interface(table):
    null = NullMonitor()
    null.call_enter("x")
    null.call_exit("x")
    with null.section("s"):
        pass
    assert null.xfer_begin(100) == -1
    null.xfer_end(-1, 100)
    null.xfer_end_only(10)
    null.pause()
    null.resume()
    assert null.finalize() is None
    assert null.event_count == 0


# -- stamp-time argument validation -------------------------------------------
@pytest.mark.parametrize("stamp", ["xfer_begin", "xfer_end"])
@pytest.mark.parametrize("nbytes", [
    pytest.param(float("nan"), id="nan"),
    pytest.param(float("inf"), id="inf"),
    pytest.param(-1, id="negative"),
    pytest.param(2**63, id="too-big-int"),
    pytest.param(2.0**63, id="too-big-float"),
])
def test_bad_nbytes_is_an_instrumentation_error(monitor, stamp, nbytes):
    """Not a bare ValueError/OverflowError from ``int()`` or the column."""
    args = (nbytes,) if stamp == "xfer_begin" else (0, nbytes)
    with pytest.raises(InstrumentationError) as err:
        getattr(monitor, stamp)(*args)
    assert stamp in str(err.value) and repr(nbytes) in str(err.value)
    # Nothing was logged, and the monitor still works.
    assert monitor.event_count == 0 and len(monitor.queue) == 0
    monitor.xfer_end(monitor.xfer_begin(8), 8)
    assert monitor.finalize().total.transfer_count == 1


def test_bad_nbytes_on_end_only_names_the_stamp(monitor):
    with pytest.raises(InstrumentationError, match="xfer_end: nbytes"):
        monitor.xfer_end_only(float("-inf"))


@pytest.mark.parametrize("nbytes, stored", [
    (4096, 4096), (4096.0, 4096), (4096.9, 4096), (0.5, 0), (-0.5, 0),
    (0, 0), (2**63 - 1, 2**63 - 1), (1e18, 10**18),
])
def test_finite_nbytes_truncate_as_int_does(monitor, nbytes, stored):
    xid = monitor.xfer_begin(nbytes)
    monitor.xfer_end(xid, nbytes)
    assert [e.b for e in list(monitor.queue.snapshot())] == [stored, stored]
    assert stored == int(nbytes)


def test_null_and_real_monitor_share_one_stamping_surface(table):
    """A stamp entry point cannot exist on one monitor only: the library
    calls whichever it was given."""
    import inspect

    def surface(cls):
        return {
            name: inspect.signature(member).parameters
            for name, member in vars(cls).items()
            if not name.startswith("_") and inspect.isfunction(
                inspect.unwrap(member))
        }

    real, null = surface(Monitor), surface(NullMonitor)
    del real["attach_metrics"]  # observability of the monitor itself
    assert sorted(real) == sorted(null)
    for name in real:
        assert list(real[name].values()) == list(null[name].values()), name
    # ... and the two data attributes the library reads.
    assert {"enabled", "event_count"} <= set(dir(NullMonitor))
    assert {"enabled", "event_count"} <= set(dir(Monitor(lambda: 0.0, table)))


def test_a_ring_monitor_taps_every_stamp_once_in_order(clock, table):
    mon = Monitor(clock, table, queue_capacity=4, ring_mode=True)
    seen = []
    mon.queue.add_tap(lambda batch: seen.extend(batch.rows()))
    for _ in range(5):
        mon.call_enter("MPI_Test")
        clock.advance(1e-6)
        mon.call_exit("MPI_Test")
    report = mon.finalize(rank=0)
    assert mon.queue.dropped == 6
    assert len(seen) == mon.queue.pushed == report.event_count == 10
    assert [t for _, t, _, _ in seen] == sorted(t for _, t, _, _ in seen)
    assert seen[-4:] == list(mon.queue.snapshot().rows())
