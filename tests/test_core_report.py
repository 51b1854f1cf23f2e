"""Tests for per-process reports, persistence, and aggregation."""

import pytest

from repro.core.measures import CASE_SPLIT_CALL, OverlapMeasures
from repro.core.monitor import Monitor
from repro.core.report import OverlapReport, aggregate_reports
from repro.core.xfer_table import XferTable


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def make_report(rank=0, label="test", with_section=False):
    clock = FakeClock()
    table = XferTable.from_model(latency=1e-6, bandwidth=1e9)
    mon = Monitor(clock, table)
    ctx = mon.section("solver") if with_section else None
    if ctx:
        ctx.__enter__()
    mon.call_enter("MPI_Isend")
    clock.advance(1e-6)
    xid = mon.xfer_begin(10000)
    mon.call_exit("MPI_Isend")
    clock.advance(50e-6)
    mon.call_enter("MPI_Wait")
    clock.advance(2e-6)
    mon.xfer_end(xid, 10000)
    mon.call_exit("MPI_Wait")
    if ctx:
        ctx.__exit__(None, None, None)
    return mon.finalize(rank=rank, label=label)


def test_report_roundtrip_through_file(tmp_path):
    report = make_report(rank=3, label="cg.A.4", with_section=True)
    path = tmp_path / "overlap.rank3.json"
    report.save(path)
    loaded = OverlapReport.load(path)
    assert loaded.rank == 3
    assert loaded.label == "cg.A.4"
    assert loaded.total.data_transfer_time == pytest.approx(
        report.total.data_transfer_time
    )
    assert loaded.total.case_counts == report.total.case_counts
    assert "solver" in loaded.sections
    assert loaded.call_stats["MPI_Wait"][0] == 1


def test_report_rejects_unknown_format():
    with pytest.raises(ValueError):
        OverlapReport.from_dict({"format_version": 999})


def test_mpi_time_is_total_call_time():
    report = make_report()
    assert report.mpi_time == pytest.approx(
        report.total.communication_call_time
    )
    assert report.mpi_time == pytest.approx(3e-6)


def test_mean_call_time_missing_name_is_zero():
    report = make_report()
    assert report.mean_call_time("MPI_Alltoall") == 0.0
    assert "MPI_Alltoall" not in report.call_stats


def test_render_text_contains_key_measures():
    report = make_report(with_section=True)
    text = report.render_text()
    assert "data transfer time" in text
    assert "min overlapped" in text
    assert "section 'solver'" in text
    assert "by message size" in text


def test_aggregate_reports_sums_totals():
    reports = [make_report(rank=i) for i in range(4)]
    merged = aggregate_reports(reports)
    assert merged.transfer_count == 4
    assert merged.data_transfer_time == pytest.approx(
        4 * reports[0].total.data_transfer_time
    )


def test_aggregate_reports_empty_raises():
    with pytest.raises(ValueError):
        aggregate_reports([])


def test_aggregated_percent_is_weighted_not_mean():
    # One rank with all-overlap, one with none: percent must weight by
    # transfer time, not average the percents.
    a = OverlapMeasures()
    a.add_transfer(100, 3.0, 3.0, 3.0, CASE_SPLIT_CALL)
    b = OverlapMeasures()
    b.add_transfer(100, 1.0, 0.0, 0.0, CASE_SPLIT_CALL)
    merged = OverlapMeasures()
    merged.merge(a)
    merged.merge(b)
    assert merged.max_overlap_pct == pytest.approx(75.0)


class TestReportMerge:
    """OverlapReport.merge / __iadd__ (built on OverlapMeasures.merge)."""

    def test_merge_empty_other_is_identity(self):
        base = make_report(rank=0, with_section=True)
        before = base.to_dict()
        clock = FakeClock()
        table = XferTable.from_model(latency=1e-6, bandwidth=1e9)
        empty = Monitor(clock, table).finalize(rank=1)
        base.merge(empty)
        after = base.to_dict()
        assert after["total"] == before["total"]
        assert after["sections"] == before["sections"]
        assert after["call_stats"] == before["call_stats"]

    def test_merge_matches_aggregate_reports(self):
        reports = [make_report(rank=i) for i in range(4)]
        expected = aggregate_reports(reports)
        merged = OverlapReport.from_dict(reports[0].to_dict())
        for rep in reports[1:]:
            merged.merge(rep)
        assert merged.total.data_transfer_time == pytest.approx(
            expected.data_transfer_time
        )
        assert merged.total.transfer_count == expected.transfer_count
        assert merged.total.case_counts == expected.case_counts

    def test_merge_disjoint_sections_deep_copies(self):
        a = make_report(rank=0, with_section=False)
        b = make_report(rank=1, with_section=True)
        a.merge(b)
        assert "solver" in a.sections
        assert a.sections["solver"] is not b.sections["solver"]
        # Mutating the merged copy must not touch b's section.
        a.sections["solver"].add_transfer(64, 1.0, 0.5, 1.0, CASE_SPLIT_CALL)
        assert b.sections["solver"].transfer_count == 1

    def test_merge_overlapping_sections_accumulate_bins(self):
        a = make_report(rank=0, with_section=True)
        b = make_report(rank=1, with_section=True)
        counts_before = [b.count for b in a.sections["solver"].bins.bins]
        a.merge(b)
        counts_after = [b.count for b in a.sections["solver"].bins.bins]
        assert sum(counts_after) == 2 * sum(counts_before)

    def test_merge_mismatched_bin_edges_raise(self):
        a = make_report(rank=0)
        other_total = OverlapMeasures(bin_edges=(10.0, 1000.0))
        b = OverlapReport(
            rank=1, label="", wall_time=0.0, event_count=0,
            total=other_total, sections={}, call_stats={},
        )
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_call_stats_and_scalars(self):
        a = make_report(rank=0)
        b = make_report(rank=1)
        b.wall_time = a.wall_time * 3
        a_count, a_time = a.call_stats["MPI_Wait"]
        merged = a.merge(b)
        assert merged is a  # chaining
        assert a.call_stats["MPI_Wait"][0] == 2 * a_count
        assert a.call_stats["MPI_Wait"][1] == pytest.approx(2 * a_time)
        assert a.wall_time == b.wall_time  # slowest rank wins
        assert a.rank == 0 and a.event_count > 0

    def test_iadd_delegates_to_merge(self):
        a = make_report(rank=0)
        b = make_report(rank=1)
        expected = a.total.data_transfer_time + b.total.data_transfer_time
        a += b
        assert a.total.data_transfer_time == pytest.approx(expected)
