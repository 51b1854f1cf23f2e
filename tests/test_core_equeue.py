"""Tests for the fixed-size circular event queue and name registry."""

import pytest

from repro.core.equeue import CircularEventQueue
from repro.core.events import EventColumns, EventKind, NameRegistry, TimedEvent


def _ev(t, ident=0):
    return TimedEvent(EventKind.XFER_BEGIN, t, ident, 8)


def test_push_buffers_until_full():
    drained = []
    q = CircularEventQueue(3, drained.extend)
    q.append(*_ev(1.0))
    q.append(*_ev(2.0))
    assert drained == []
    assert len(q) == 2


def test_drain_fires_when_capacity_exceeded():
    drained = []
    q = CircularEventQueue(2, lambda batch: drained.append(list(batch)))
    q.append(*_ev(1.0))
    q.append(*_ev(2.0))
    q.append(*_ev(3.0))  # forces a drain of the first two
    assert drained == [[_ev(1.0), _ev(2.0)]]
    assert len(q) == 1


def test_flush_drains_partial_queue():
    drained = []
    q = CircularEventQueue(10, lambda batch: drained.append(list(batch)))
    q.append(*_ev(1.0))
    q.flush()
    assert drained == [[_ev(1.0)]]
    assert len(q) == 0


def test_flush_on_empty_queue_is_noop():
    drained = []
    q = CircularEventQueue(4, lambda batch: drained.append(list(batch)))
    q.flush()
    assert drained == []
    assert q.drains == 0


def test_events_delivered_in_order_across_drains():
    seen = []
    q = CircularEventQueue(2, seen.extend)
    for i in range(7):
        q.append(*_ev(float(i), ident=i))
    q.flush()
    assert [e.a for e in seen] == list(range(7))


def test_statistics_counters():
    q = CircularEventQueue(2, lambda batch: None)
    for i in range(5):
        q.append(*_ev(float(i)))
    assert q.pushed == 5
    assert q.drains == 2  # drained at pushes 3 and 5


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        CircularEventQueue(0, lambda batch: None)


def test_head_resets_after_drain_slots_reused():
    q = CircularEventQueue(1, lambda batch: None)
    q.append(*_ev(1.0))
    q.append(*_ev(2.0))
    q.append(*_ev(3.0))
    assert len(q) == 1
    assert q.pushed == 3


def test_reentrant_push_during_drain_is_kept():
    """A drain callback pushing events back must not lose them.

    The head is reset before the callback runs, so reentrant pushes land
    in the freed slots instead of being wiped by a post-drain reset.
    """
    drained = []
    q = CircularEventQueue(2, lambda batch: drain(batch))

    def drain(batch):
        drained.append([e.a for e in batch])
        if len(drained) == 1:  # emit one derived event while draining
            q.append(*_ev(99.0, ident=99))

    for i in range(3):
        q.append(*_ev(float(i), ident=i))
    # Drain fired once with [0, 1]; the reentrant 99 must still be queued
    # ahead of 2, not erased.
    assert drained == [[0, 1]]
    assert len(q) == 2
    q.flush()
    assert drained == [[0, 1], [99, 2]]
    assert len(q) == 0


def test_reentrant_flush_during_drain_does_not_redeliver():
    """A callback calling flush() again sees an empty queue, not the batch."""
    calls = []
    q = CircularEventQueue(4, lambda batch: drain(batch))

    def drain(batch):
        calls.append(list(batch))
        q.flush()  # reentrant: the batch is already detached

    q.append(*_ev(1.0))
    q.flush()
    assert len(calls) == 1
    assert q.drains == 1


def test_ring_mode_drop_counter_matches_hand_computed_overflow():
    """drain=None keeps the newest ``capacity`` events and counts drops.

    Hand-computed: capacity 4, 10 pushes -> the first 6 events are
    overwritten (dropped == 6) and the ring holds exactly events 6..9,
    oldest first.
    """
    q = CircularEventQueue(4, None)
    for i in range(10):
        q.append(*_ev(float(i), ident=i))
    assert q.dropped == 6
    assert q.pushed == 10
    assert len(q) == 4
    assert [e.a for e in list(q.snapshot())] == [6, 7, 8, 9]
    assert q.occupancy_high_water == 4


def test_ring_mode_below_capacity_drops_nothing():
    q = CircularEventQueue(4, None)
    for i in range(4):
        q.append(*_ev(float(i), ident=i))
    assert q.dropped == 0
    assert [e.a for e in list(q.snapshot())] == [0, 1, 2, 3]


def test_ring_mode_flush_is_rejected():
    q = CircularEventQueue(2, None)
    q.append(*_ev(1.0))
    with pytest.raises(ValueError, match="without a drain"):
        q.flush()


def test_drained_queue_never_drops():
    """The normal monitor wiring loses nothing, whatever the volume."""
    seen = []
    q = CircularEventQueue(2, seen.extend)
    for i in range(100):
        q.append(*_ev(float(i), ident=i))
    q.flush()
    assert q.dropped == 0
    assert [e.a for e in seen] == list(range(100))


def test_reentrant_flush_counter():
    q = CircularEventQueue(4, lambda batch: drain(batch))

    def drain(batch):
        if not q.reentrant_flushes:  # push + flush from inside the drain
            q.append(*_ev(99.0, ident=99))
            q.flush()

    q.append(*_ev(1.0))
    q.flush()
    assert q.reentrant_flushes == 1
    assert q.drains == 2


def test_queue_metrics_sample_live_counters():
    from repro.metrics import MetricsRegistry

    reg = MetricsRegistry()
    q = CircularEventQueue(2, lambda batch: None,
                           metrics=reg, labels={"rank": "0"})
    for i in range(5):
        q.append(*_ev(float(i)))
    by_name = {f.name: f.samples[0] for f in reg.collect()}
    assert by_name["repro_equeue_events_pushed"].value == 5.0
    assert by_name["repro_equeue_flushes"].value == 2.0
    assert by_name["repro_equeue_occupancy"].value == 1.0
    assert by_name["repro_equeue_occupancy_hiwater"].value == 2.0
    assert by_name["repro_equeue_events_dropped"].value == 0.0
    assert by_name["repro_equeue_occupancy"].labels == (("rank", "0"),)
    # The drain ran with the flush-latency histogram attached.
    hist = by_name["repro_equeue_flush_seconds"].value
    assert hist.count == 2


def test_name_registry_interns_stably():
    reg = NameRegistry()
    a = reg.ids["MPI_Isend"]
    b = reg.ids["MPI_Wait"]
    assert a != b
    assert reg.ids["MPI_Isend"] == a
    assert reg.name_of(a) == "MPI_Isend"
    assert reg.name_of(b) == "MPI_Wait"
    assert len(reg) == 2
    assert "MPI_Isend" in reg
    assert "MPI_Recv" not in reg


# -- the columnar surface ----------------------------------------------------
def test_drain_is_handed_the_columns():
    """A drain gets an ``EventColumns``: typed columns, records by ``rows()``,
    ``TimedEvent`` objects only for whoever iterates it."""
    batches = []
    q = CircularEventQueue(2, batches.append)
    q.append(int(EventKind.CALL_ENTER), 1.0, 3, 0)
    q.append(*_ev(2.0, ident=7))
    q.flush()
    (batch,) = batches
    assert isinstance(batch, EventColumns)
    assert [col.typecode for col in (batch.kind, batch.time, batch.a, batch.b)] \
        == ["b", "d", "q", "q"]
    assert list(batch.rows()) == [(0, 1.0, 3, 0), (2, 2.0, 7, 8)]
    events = list(batch)
    assert events == [TimedEvent(EventKind.CALL_ENTER, 1.0, 3, 0), _ev(2.0, 7)]
    assert all(type(e) is TimedEvent and type(e.kind) is EventKind
               for e in events)
    assert len(batch) == 2 and len(q) == 0


def test_drained_batch_is_detached_from_the_queue():
    batches = []
    q = CircularEventQueue(2, batches.append)
    for i in range(5):
        q.append(*_ev(float(i), ident=i))
    q.flush()
    assert [list(b.a) for b in batches] == [[0, 1], [2, 3], [4]]


def test_snapshot_and_events_do_not_consume():
    q = CircularEventQueue(3, None)
    for i in range(5):
        q.append(*_ev(float(i), ident=i))
    assert list(q.snapshot().a) == [2, 3, 4]
    assert list(q.snapshot()) == [_ev(2.0, 2), _ev(3.0, 3), _ev(4.0, 4)]
    assert len(q) == 3 and q.dropped == 2
    q.append(*_ev(5.0, ident=5))
    assert [e.a for e in list(q.snapshot())] == [3, 4, 5]


def test_diagnostics_are_derived_not_counted_per_stamp():
    q = CircularEventQueue(4, lambda batch: None)
    for i in range(3):
        q.append(*_ev(float(i)))
    assert (q.pushed, q.occupancy_high_water, q.drains) == (3, 3, 0)
    q.flush()
    q.append(*_ev(9.0))
    assert (q.pushed, q.occupancy_high_water, q.drains, len(q)) == (4, 3, 1, 1)
    assert q.ring is False and CircularEventQueue(1, None).ring is True


def test_taps_see_every_drained_batch_before_the_drain():
    order = []
    q = CircularEventQueue(2, lambda batch: order.append(("drain", list(batch.a))))
    q.add_tap(lambda batch: order.append(("tap", list(batch.a))))
    for i in range(3):
        q.append(*_ev(float(i), ident=i))
    q.flush()
    assert order == [("tap", [0, 1]), ("drain", [0, 1]),
                     ("tap", [2]), ("drain", [2])]


def test_a_ring_hands_its_taps_each_lap_before_overwriting_it():
    laps = []
    q = CircularEventQueue(3, None)
    q.append(*_ev(0.0, ident=99))  # stored before the tap: not the tap's
    q.add_tap(lambda batch: laps.append(list(batch.a)))
    for i in range(8):
        q.append(*_ev(float(i), ident=i))
    assert laps == [[0, 1, 2], [3, 4, 5]]
    assert [e.a for e in list(q.snapshot())] == [5, 6, 7]
    assert q.dropped == 6


def test_every_ring_tap_gets_each_batch_in_the_order_the_taps_were_added():
    order = []
    q = CircularEventQueue(2, None)
    q.add_tap(lambda batch: order.append(("first", list(batch.a))))
    q.add_tap(lambda batch: order.append(("second", list(batch.a))))
    for i in range(5):
        q.append(*_ev(float(i), ident=i))
    assert order == [("first", [0, 1]), ("second", [0, 1]),
                     ("first", [2, 3]), ("second", [2, 3])]
    q._tap_unseen()  # what finalize does: the survivors not yet seen
    assert order[4:] == [("first", [4]), ("second", [4])]
    q._tap_unseen()  # nothing new: no empty batch
    assert len(order) == 6


def test_a_tap_added_to_a_draining_queue_skips_what_it_holds():
    seen = []
    q = CircularEventQueue(4, lambda batch: None)
    q.append(*_ev(0.0, ident=99))
    q.add_tap(lambda batch: seen.extend(batch.a))
    q.append(*_ev(1.0, ident=1))
    q.flush()
    assert seen == [1] and q.drains == 2


def test_a_record_a_column_rejects_leaves_no_half_record():
    q = CircularEventQueue(4, lambda batch: None)
    q.append(*_ev(1.0))
    with pytest.raises(OverflowError):
        q.append(2, 2.0, 1, 2**63)
    with pytest.raises(TypeError):
        q.append(2, 2.0, 1, 8.5)
    assert len(q) == 1
    assert {len(c) for c in (q.columns.kind, q.columns.time,
                             q.columns.a, q.columns.b)} == {1}


def test_storage_grows_with_what_is_buffered_not_with_capacity():
    """O(1) build per rank: an idle big queue holds no slots."""
    import sys

    def held(queue):
        cols = queue.columns
        return sum(sys.getsizeof(c) for c in (cols.kind, cols.time, cols.a, cols.b))

    small, big = CircularEventQueue(8, None), CircularEventQueue(1 << 20, None)
    assert held(small) == held(big)
    for i in range(8):
        small.append(*_ev(float(i)))
        big.append(*_ev(float(i)))
    assert held(small) == held(big)
