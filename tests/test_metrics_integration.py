"""End-to-end: a monitored simulation populates the metrics registry.

This is the ISSUE's acceptance scenario as a test: run a micro benchmark
with a registry attached and check that the self-observability numbers
are consistent with the overlap reports the run produces -- and that a
run *without* a registry still produces bit-identical reports (nil fast
path changes nothing).
"""

import pytest

from repro.experiments.micro import _micro_app
from repro.metrics import MetricsRegistry, render_openmetrics
from repro.mpisim.config import openmpi_like
from repro.runtime.launcher import run_app
from tests.oracles import parse_openmetrics


def _run(metrics=None):
    return run_app(
        _micro_app, 2, config=openmpi_like(), label="metrics-it",
        app_args=("isend_irecv", 64 * 1024, 1e-4, 4, 1),
        metrics=metrics,
    )


@pytest.fixture(scope="module")
def monitored():
    reg = MetricsRegistry()
    result = _run(metrics=reg)
    return reg, result


def test_exposition_is_valid_and_nonempty(monitored):
    reg, _ = monitored
    parsed = parse_openmetrics(render_openmetrics(reg))
    assert len(parsed) >= 15  # equeue + monitor + processor + engine families


def _sample(reg, name, rank):
    (family,) = [f for f in reg.collect() if f.name == name]
    for labels, value in family.samples:
        if ("rank", str(rank)) in labels:
            return value
    raise AssertionError(f"no rank={rank} sample in {name}")


def test_equeue_saw_traffic_and_nothing_dropped(monitored):
    reg, _ = monitored
    for rank in (0, 1):
        assert _sample(reg, "repro_equeue_occupancy_hiwater", rank) > 0
        assert _sample(reg, "repro_equeue_events_pushed", rank) > 0
        assert _sample(reg, "repro_equeue_events_dropped", rank) == 0


def test_case_counts_sum_to_report_transfers(monitored):
    reg, result = monitored
    (family,) = [f for f in reg.collect()
                 if f.name == "repro_processor_cases"]
    for rank in (0, 1):
        report = result.reports[rank]
        total_cases = sum(
            value for labels, value in family.samples
            if ("rank", str(rank)) in labels
        )
        assert total_cases == report.total.transfer_count
        assert _sample(reg, "repro_processor_transfers", rank) == (
            report.total.transfer_count
        )


def test_monitor_event_counts_match_queue_pushes(monitored):
    reg, _ = monitored
    for rank in (0, 1):
        (family,) = [f for f in reg.collect()
                     if f.name == "repro_monitor_events"]
        by_kind = sum(
            value for labels, value in family.samples
            if ("rank", str(rank)) in labels
        )
        assert by_kind == _sample(reg, "repro_equeue_events_pushed", rank)


def test_engine_progressed(monitored):
    reg, _ = monitored
    (family,) = [f for f in reg.collect()
                 if f.name == "repro_engine_events_processed"]
    assert family.samples[0].value > 0
    (family,) = [f for f in reg.collect()
                 if f.name == "repro_engine_sim_time_seconds"]
    assert family.samples[0].value > 0


def test_nil_registry_run_is_bit_identical(monitored):
    _, with_metrics = monitored
    bare = _run(metrics=None)
    for a, b in zip(with_metrics.reports, bare.reports):
        assert a.to_dict() == b.to_dict()


def test_per_rank_snapshots_aggregate(monitored):
    """The snapshot keeps one row per rank; summing the rows is the whole
    merge a reader of the JSON file needs."""
    reg, _ = monitored
    rows = reg.snapshot()["metrics"]["repro_equeue_events_pushed"]["samples"]
    assert len(rows) == 2
    by_rank = {row["labels"]["rank"]: row["value"] for row in rows}
    assert by_rank == {str(rank): _sample(reg, "repro_equeue_events_pushed",
                                          rank) for rank in (0, 1)}
    assert sum(by_rank.values()) > 0
