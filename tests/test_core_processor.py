"""Tests for the three-case overlap bounding algorithm (paper Sec. 2.2).

Every scenario here is a hand-built event stream with hand-computed
expected bounds, mirroring the timelines of the paper's Fig. 1.
"""

import pytest

from repro.core.events import EventKind, TimedEvent
from repro.core.processor import DataProcessor, InstrumentationError
from repro.core.xfer_table import XferTable

K = EventKind


def enter(t, name=0):
    return TimedEvent(K.CALL_ENTER, t, name, 0)


def leave(t, name=0):
    return TimedEvent(K.CALL_EXIT, t, name, 0)


def begin(t, ident, nbytes):
    return TimedEvent(K.XFER_BEGIN, t, ident, nbytes)


def end(t, ident, nbytes):
    return TimedEvent(K.XFER_END, t, ident, nbytes)


@pytest.fixture
def table():
    # Flat analytic table: time(n) = 1us + n * 1ns  (1 GB/s, 1 us latency).
    return XferTable.from_model(latency=1e-6, bandwidth=1e9)


def make(table, events, finalize_at=None):
    proc = DataProcessor(table)
    proc.process(events)
    proc.finalize(finalize_at)
    return proc


class TestCase1SameCall:
    """Begin and end inside one call: both bounds zero."""

    def test_bounds_are_zero(self, table):
        events = [
            enter(0.0),
            begin(1e-6, 7, 1000),
            end(5e-6, 7, 1000),
            leave(6e-6),
        ]
        proc = make(table, events)
        m = proc.total
        assert m.case_counts == {1: 1, 2: 0, 3: 0}
        assert m.min_overlap_time == 0.0
        assert m.max_overlap_time == 0.0
        assert m.data_transfer_time == pytest.approx(table.time_for(1000))

    def test_same_call_requires_same_instance_not_same_name(self, table):
        # begin in call #1, end in call #2 (same name): case 2, not case 1.
        events = [
            enter(0.0),
            begin(1e-6, 7, 1000),
            leave(2e-6),
            enter(10e-6),
            end(12e-6, 7, 1000),
            leave(13e-6),
        ]
        proc = make(table, events)
        assert proc.total.case_counts[2] == 1


class TestCase2SplitCalls:
    """Begin and end in different calls: bounded by interleaved time."""

    def test_ample_computation_gives_full_max_overlap(self, table):
        xfer = table.time_for(10000)  # 11 us
        events = [
            enter(0.0),  # Isend
            begin(1e-6, 1, 10000),
            leave(2e-6),
            # 100 us of computation >> xfer time
            enter(102e-6),  # Wait
            end(103e-6, 1, 10000),
            leave(104e-6),
        ]
        m = make(table, events).total
        assert m.case_counts[2] == 1
        assert m.max_overlap_time == pytest.approx(xfer)
        # noncomp between begin and end: 1us (in Isend) + 1us (in Wait) = 2us
        assert m.min_overlap_time == pytest.approx(xfer - 2e-6)

    def test_insufficient_computation_caps_max_overlap(self, table):
        xfer = table.time_for(100000)  # 101 us
        events = [
            enter(0.0),
            begin(1e-6, 1, 100000),
            leave(2e-6),
            enter(12e-6),  # only 10 us of compute
            end(120e-6, 1, 100000),
            leave(121e-6),
        ]
        m = make(table, events).total
        assert m.max_overlap_time == pytest.approx(10e-6)

    def test_large_library_time_zeroes_min_bound(self, table):
        xfer = table.time_for(1000)  # 2 us
        events = [
            enter(0.0),
            begin(1e-6, 1, 1000),
            leave(2e-6),
            enter(3e-6),
            # wait dominated: 50 us inside the library before completion
            end(53e-6, 1, 1000),
            leave(54e-6),
        ]
        m = make(table, events).total
        assert m.min_overlap_time == 0.0  # noncomp (51us) >= xfer (2us)
        assert m.max_overlap_time == pytest.approx(1e-6)  # only 1 us compute

    def test_min_bound_formula_exact(self, table):
        # xfer = 1us + 50000ns = 51 us; noncomp = 3us + 2us = 5us
        events = [
            enter(0.0),
            begin(2e-6, 9, 50000),
            leave(5e-6),  # 3 us in-library after begin
            enter(65e-6),  # 60 us compute
            end(67e-6, 9, 50000),  # 2 us in-library before end
            leave(68e-6),
        ]
        m = make(table, events).total
        xfer = table.time_for(50000)
        assert m.min_overlap_time == pytest.approx(xfer - 5e-6)
        assert m.max_overlap_time == pytest.approx(xfer)  # 60us comp > xfer

    def test_interleaved_multi_call_sequence_accumulates(self, table):
        # begin; [exit 10us compute; enter 5us library] x2; end.
        events = [
            enter(0.0),
            begin(0.0, 1, 30000),
            leave(0.0),
            enter(10e-6),
            leave(15e-6),
            enter(25e-6),
            end(30e-6, 1, 30000),
            leave(30e-6),
        ]
        m = make(table, events).total
        # xfer = 31 us but begin->end elapsed is only 30 us: the raw min
        # bound (xfer - noncomp = 21 us) would exceed the max bound
        # (comp = 20 us), so the processor clamps min to max.
        assert m.max_overlap_time == pytest.approx(20e-6)  # comp capped
        assert m.min_overlap_time == pytest.approx(20e-6)  # clamped to max

    def test_begin_outside_any_call_still_case2(self, table):
        # ARMCI-style: the stamping happens outside (tolerated).
        events = [
            begin(0.0, 1, 1000),
            enter(50e-6),
            end(51e-6, 1, 1000),
            leave(52e-6),
        ]
        m = make(table, events).total
        assert m.case_counts[2] == 1
        assert m.max_overlap_time == pytest.approx(table.time_for(1000))


class TestCase3OneEvent:
    def test_end_without_begin(self, table):
        events = [
            enter(0.0),
            end(5e-6, 42, 2000),
            leave(6e-6),
        ]
        m = make(table, events).total
        assert m.case_counts[3] == 1
        assert m.min_overlap_time == 0.0
        assert m.max_overlap_time == pytest.approx(table.time_for(2000))

    def test_begin_without_end_resolved_at_finalize(self, table):
        events = [
            enter(0.0),
            begin(1e-6, 5, 4000),
            leave(2e-6),
        ]
        m = make(table, events, finalize_at=100e-6).total
        assert m.case_counts[3] == 1
        assert m.max_overlap_time == pytest.approx(table.time_for(4000))
        assert m.min_overlap_time == 0.0

    def test_data_transfer_time_counts_case3(self, table):
        events = [enter(0.0), end(1e-6, 1, 1000), leave(2e-6)]
        m = make(table, events).total
        assert m.data_transfer_time == pytest.approx(table.time_for(1000))


class TestIntervalAttribution:
    def test_computation_and_call_time_split(self, table):
        events = [
            enter(0.0),
            leave(3e-6),  # 3us call
            enter(10e-6),  # 7us compute
            leave(12e-6),  # 2us call
        ]
        m = make(table, events).total
        assert m.communication_call_time == pytest.approx(5e-6)
        assert m.computation_time == pytest.approx(7e-6)

    def test_time_before_first_event_not_attributed(self, table):
        events = [enter(10.0), leave(11.0)]
        m = make(table, events).total
        assert m.computation_time == 0.0
        assert m.communication_call_time == pytest.approx(1.0)

    def test_finalize_attributes_tail_interval(self, table):
        events = [enter(0.0), leave(1.0)]
        proc = DataProcessor(table)
        proc.process(events)
        proc.finalize(4.0)  # 3s of trailing computation
        assert proc.total.computation_time == pytest.approx(3.0)

    def test_nested_calls_count_as_in_library(self, table):
        events = [
            enter(0.0, name=0),
            enter(1e-6, name=1),  # nested helper
            leave(2e-6, name=1),
            leave(3e-6, name=0),
        ]
        m = make(table, events).total
        assert m.communication_call_time == pytest.approx(3e-6)
        assert m.computation_time == 0.0

    def test_reset_event_skips_gap(self, table):
        events = [
            enter(0.0),
            leave(1.0),
            TimedEvent(K.RESET, 100.0, 0, 0),  # paused from 1.0 to 100.0
            enter(101.0),
            leave(102.0),
        ]
        m = make(table, events).total
        assert m.computation_time == pytest.approx(1.0)  # 100->101 only
        assert m.communication_call_time == pytest.approx(2.0)


class TestCallStats:
    def test_per_call_name_totals(self, table):
        events = [
            enter(0.0, name=3),
            leave(2e-6, name=3),
            enter(5e-6, name=3),
            leave(6e-6, name=3),
            enter(7e-6, name=4),
            leave(10e-6, name=4),
        ]
        proc = make(table, events)
        assert proc.call_stats[3].count == 2
        assert proc.call_stats[3].total_time == pytest.approx(3e-6)
        stats = proc.call_stats[3]
        assert stats.total_time / stats.count == pytest.approx(1.5e-6)
        assert proc.call_stats[4].total_time == pytest.approx(3e-6)

    def test_nested_calls_attributed_to_outermost(self, table):
        events = [
            enter(0.0, name=0),
            enter(1.0, name=1),
            leave(2.0, name=1),
            leave(3.0, name=0),
        ]
        proc = make(table, events)
        assert proc.call_stats[0].total_time == pytest.approx(3.0)
        assert 1 not in proc.call_stats


class TestSections:
    def test_section_scopes_transfers_and_intervals(self, table):
        events = [
            TimedEvent(K.SECTION_BEGIN, 0.0, 11, 0),
            enter(0.0),
            begin(0.0, 1, 10000),
            leave(1e-6),
            enter(100e-6),
            end(101e-6, 1, 10000),
            leave(102e-6),
            TimedEvent(K.SECTION_END, 102e-6, 11, 0),
            # outside the section: another call
            enter(110e-6),
            leave(111e-6),
        ]
        proc = make(table, events)
        sec = proc.sections[11]
        assert sec.transfer_count == 1
        assert sec.max_overlap_time == pytest.approx(table.time_for(10000))
        assert sec.communication_call_time == pytest.approx(3e-6)
        assert sec.computation_time == pytest.approx(99e-6)
        # global sees everything
        assert proc.total.communication_call_time == pytest.approx(4e-6)

    def test_transfer_attributed_to_section_at_begin(self, table):
        # xfer begins inside section, ends after it closed -> still counted.
        events = [
            TimedEvent(K.SECTION_BEGIN, 0.0, 5, 0),
            enter(0.0),
            begin(0.0, 1, 1000),
            leave(1e-6),
            TimedEvent(K.SECTION_END, 2e-6, 5, 0),
            enter(50e-6),
            end(51e-6, 1, 1000),
            leave(52e-6),
        ]
        proc = make(table, events)
        assert proc.sections[5].transfer_count == 1

    def test_mismatched_section_end_raises(self, table):
        proc = DataProcessor(table)
        with pytest.raises(InstrumentationError):
            proc.process(
                [
                    TimedEvent(K.SECTION_BEGIN, 0.0, 1, 0),
                    TimedEvent(K.SECTION_END, 1.0, 2, 0),
                ]
            )


class TestStreamValidation:
    def test_backwards_time_rejected(self, table):
        proc = DataProcessor(table)
        with pytest.raises(InstrumentationError):
            proc.process([enter(5.0), leave(1.0)])

    def test_exit_without_enter_rejected(self, table):
        proc = DataProcessor(table)
        with pytest.raises(InstrumentationError):
            proc.process([leave(0.0)])

    def test_duplicate_begin_rejected(self, table):
        proc = DataProcessor(table)
        with pytest.raises(InstrumentationError):
            proc.process([enter(0.0), begin(0.0, 1, 10), begin(1.0, 1, 10)])

    def test_size_mismatch_rejected(self, table):
        proc = DataProcessor(table)
        with pytest.raises(InstrumentationError):
            proc.process([enter(0.0), begin(0.0, 1, 10), end(1.0, 1, 20)])

    def test_process_after_finalize_rejected(self, table):
        proc = DataProcessor(table)
        proc.finalize()
        with pytest.raises(InstrumentationError):
            proc.process([enter(0.0)])

    def test_double_finalize_is_idempotent(self, table):
        proc = DataProcessor(table)
        proc.process([enter(0.0), begin(0.0, 1, 10), leave(1.0)])
        proc.finalize(2.0)
        proc.finalize(5.0)  # no-op
        assert proc.total.case_counts[3] == 1


class TestBatchContinuity:
    """State must survive circular-queue drains (active events persist)."""

    def test_transfer_spanning_batches(self, table):
        proc = DataProcessor(table)
        proc.process([enter(0.0), begin(1e-6, 1, 10000), leave(2e-6)])
        proc.process([enter(100e-6), end(101e-6, 1, 10000), leave(102e-6)])
        proc.finalize()
        xfer = table.time_for(10000)
        assert proc.total.max_overlap_time == pytest.approx(xfer)
        assert proc.total.min_overlap_time == pytest.approx(xfer - 2e-6)

    def test_interval_attribution_spans_batches(self, table):
        proc = DataProcessor(table)
        proc.process([enter(0.0), leave(1.0)])
        proc.process([enter(3.0), leave(4.0)])
        proc.finalize()
        assert proc.total.computation_time == pytest.approx(2.0)
        assert proc.total.communication_call_time == pytest.approx(2.0)
