"""Strict validation of the Chrome trace_event / Perfetto export."""

import json

import pytest

from repro.mpisim.config import MpiConfig
from repro.runtime import run_app
from repro.telemetry import TelemetryConfig
from repro.telemetry.perfetto import TIME_SCALE, ChromeTraceExporter
from repro.telemetry.windows import WINDOW_METRICS

NRANKS = 3


def _overlap_app(ctx):
    peer = (ctx.rank + 1) % ctx.size
    src = (ctx.rank - 1) % ctx.size
    for _ in range(4):
        sreq = yield from ctx.comm.isend(peer, 5, 32 * 1024)
        rreq = yield from ctx.comm.irecv(src, 5)
        with ctx.monitor.section("stencil"):
            yield from ctx.compute(2e-4)
        yield from ctx.comm.wait(sreq)
        yield from ctx.comm.wait(rreq)


@pytest.fixture(scope="module")
def run():
    return run_app(
        _overlap_app, NRANKS,
        config=MpiConfig(name="perfetto-test", eager_limit=1024),
        record_transfers=True,
        telemetry=TelemetryConfig(window_width=1e-4),
        label="ring",
    )


@pytest.fixture(scope="module")
def trace(run):
    return run.telemetry.build_trace(run).to_dict()


def test_trace_is_valid_json_with_required_keys(run, tmp_path):
    exporter = run.telemetry.build_trace(run)
    path = tmp_path / "trace.json"
    exporter.save(path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert isinstance(doc["traceEvents"], list)
    assert doc["traceEvents"]
    assert doc["displayTimeUnit"] in ("ms", "ns")
    for ev in doc["traceEvents"]:
        assert isinstance(ev, dict)
        assert "ph" in ev and "pid" in ev


def test_timestamps_and_durations_are_sane(run, trace):
    # Counter samples may sit on the window grid, whose last boundary is
    # the first multiple of the width at or past the run end.
    grid_end = max(
        rt.series.end(len(rt.series) - 1)
        for rt in run.telemetry.per_rank if len(rt.series)
    )
    horizon_us = max(run.elapsed, grid_end) * TIME_SCALE
    for ev in trace["traceEvents"]:
        if ev["ph"] == "M":
            continue
        assert ev["ts"] >= 0.0
        assert ev["ts"] <= horizon_us + 1e-6
        if ev["ph"] == "X":
            assert ev["dur"] >= 0.0
            assert ev["ts"] + ev["dur"] <= horizon_us + 1e-6


def test_one_process_per_rank_with_metadata(trace):
    events = trace["traceEvents"]
    assert {e["pid"] for e in events} == set(range(NRANKS))
    for rank in range(NRANKS):
        meta = [e for e in events
                if e["ph"] == "M" and e["pid"] == rank
                and e["name"] == "process_name"]
        assert len(meta) == 1
        assert f"rank {rank}" in meta[0]["args"]["name"]


def test_each_rank_gets_its_metadata_once_in_a_fixed_order(trace):
    for rank in range(NRANKS):
        meta = [(e["name"], e["tid"], e["args"])
                for e in trace["traceEvents"]
                if e["ph"] == "M" and e["pid"] == rank]
        assert meta == [
            ("process_name", 0, {"name": f"rank {rank} (ring)"}),
            ("process_sort_index", 0, {"sort_index": rank}),
            ("thread_name", 1, {"name": "library calls"}),
            ("thread_name", 2, {"name": "sections"}),
            ("thread_name", 3, {"name": "data transfers"}),
            ("thread_name", 4, {"name": "wire (ground truth)"}),
        ]


def test_counter_track_per_metric_per_rank(trace):
    events = trace["traceEvents"]
    for rank in range(NRANKS):
        names = {e["name"] for e in events
                 if e["ph"] == "C" and e["pid"] == rank}
        for metric in WINDOW_METRICS:
            assert f"win.{metric}" in names, (rank, metric)


def test_call_slices_present_and_stacked(trace):
    events = trace["traceEvents"]
    calls = [e for e in events if e["ph"] == "X" and e["cat"] == "call"]
    assert calls
    names = {e["name"] for e in calls}
    assert "MPI_Isend" in names
    assert "MPI_Wait" in names
    assert "MPI_Init" in names  # the anchor call survives export


def test_section_slices_present(trace):
    sections = [e for e in trace["traceEvents"]
                if e["ph"] == "X" and e["cat"] == "section"]
    assert sections
    assert {e["name"] for e in sections} == {"stencil"}


def test_transfer_spans_are_balanced_async_pairs(trace):
    events = trace["traceEvents"]
    begins = [e for e in events if e["ph"] == "b"]
    ends = [e for e in events if e["ph"] == "e"]
    assert begins and len(begins) == len(ends)
    open_ids = {(e["pid"], e["cat"], e["id"]): e["ts"] for e in begins}
    for e in ends:
        key = (e["pid"], e["cat"], e["id"])
        assert key in open_ids
        assert e["ts"] >= open_ids[key]


def test_ground_truth_wire_tracks_present(trace):
    wire = [e for e in trace["traceEvents"] if e.get("cat") == "wire"]
    assert wire  # record_transfers=True adds physical spans


def test_counter_values_match_window_deltas(run, trace):
    series = run.telemetry.series(0)
    rows = series.deltas()
    counter = [e for e in trace["traceEvents"]
               if e["ph"] == "C" and e["pid"] == 0
               and e["name"] == "win.max_overlap_time"]
    # one sample per window plus the closing zero
    assert len(counter) == len(rows) + 1
    for ev, row in zip(counter, rows):
        assert ev["ts"] == pytest.approx(row["start"] * TIME_SCALE)
        (value,) = ev["args"].values()
        assert value == pytest.approx(row["max_overlap_time"])
    assert list(counter[-1]["args"].values()) == [0.0]


def test_add_window_counters_rejects_unknown_metric(run):
    exporter = ChromeTraceExporter()
    with pytest.raises(ValueError):
        exporter.add_window_counters(
            0, run.telemetry.series(0), metrics=["not_a_metric"]
        )


def test_apriori_spans_used_without_ground_truth():
    result = run_app(
        _overlap_app, NRANKS,
        config=MpiConfig(name="perfetto-apriori", eager_limit=1024),
        telemetry=TelemetryConfig(window_width=1e-4),
    )
    doc = result.telemetry.build_trace(result).to_dict()
    cats = {e.get("cat") for e in doc["traceEvents"]}
    assert "wire" not in cats  # no physical log to draw
    assert "transfer" in cats or "transfer.apriori" in cats
