"""Host-side cost of the self-observability metrics on the full stack.

The metrics registry is designed to be close to free: everything hot is
a sampled callable read only at collection time, plus a handful of
single-compare high-water updates.  This bench holds it to that design:
an instrumented NAS LU run with a registry attached must cost less than
5% extra wall-clock over the same run without one.  Extends
``BENCH_simulator.json`` (key ``metrics_overhead_lu``)::

    python -m pytest benchmarks/test_metrics_overhead.py --benchmark-only
"""

from __future__ import annotations

import statistics
import time

from repro.metrics import MetricsRegistry, render_openmetrics
from repro.mpisim.config import mvapich2_like
from repro.nas.base import CpuModel
from repro.nas.lu import lu_app
from repro.runtime import run_app
from tests.oracles import parse_openmetrics

#: Interleaved (plain, metrics) measurement pairs; median of per-pair
#: ratios cancels host drift (see test_telemetry_overhead.py).
PAIRS = 7
#: Absolute slop per pair on top of the 5% budget under test.
NOISE_EPSILON_S = 0.005


def _lu_run(metrics=None):
    return run_app(
        lu_app, 4, config=mvapich2_like(),
        app_args=("A", 2, CpuModel(), None),
        metrics=metrics,
    )


def test_metrics_overhead_under_five_percent(benchmark, bench_record, emit):
    _lu_run()  # warm both paths before timing
    _lu_run(metrics=MetricsRegistry())

    ratios = []
    base_times, with_times = [], []
    plain = result = registry = None
    for _ in range(PAIRS):
        t0 = time.perf_counter()
        plain = _lu_run()
        base = time.perf_counter() - t0
        registry = MetricsRegistry()
        t0 = time.perf_counter()
        result = _lu_run(metrics=registry)
        dur = time.perf_counter() - t0
        base_times.append(base)
        with_times.append(dur)
        ratios.append(dur / (base + NOISE_EPSILON_S))

    benchmark.pedantic(lambda: _lu_run(metrics=MetricsRegistry()),
                       rounds=1, iterations=1)

    # Observability must not change what is observed...
    for rank in range(4):
        assert plain.report(rank).total.transfer_count == (
            result.report(rank).total.transfer_count
        )
    # ...and the registry must actually have watched the run.
    exposition = parse_openmetrics(render_openmetrics(registry))
    pushed = sum(
        exposition["repro_equeue_events_pushed"]["samples"].values()
    )
    assert pushed > 0

    baseline = statistics.median(base_times)
    with_metrics = statistics.median(with_times)
    ratio = statistics.median(ratios)
    overhead_pct = (with_metrics / baseline - 1.0) * 100.0
    bench_record["metrics_overhead_lu"] = {
        "baseline_median_s": round(baseline, 6),
        "metrics_median_s": round(with_metrics, 6),
        "overhead_pct": round(overhead_pct, 2),
        "paired_ratio_median": round(ratio, 4),
        "metric_families": len(exposition),
        "equeue_events_pushed": int(pushed),
    }
    emit(
        "metrics_overhead",
        "metrics overhead (LU class A, 4 ranks, 2 iterations):\n"
        f"  plain instrumented run   {baseline * 1e3:.1f} ms\n"
        f"  with metrics registry    {with_metrics * 1e3:.1f} ms\n"
        f"  overhead (medians)       {overhead_pct:+.1f}%\n"
        f"  paired-ratio median      {ratio:.3f}\n"
        f"  metric families          {len(exposition)}",
    )
    # The registry's contract: <5% on top of the instrumented run.
    assert ratio <= 1.05, (
        f"metrics added {(ratio - 1) * 100:.1f}% (paired-ratio median; "
        f"medians {baseline * 1e3:.1f} ms -> {with_metrics * 1e3:.1f} ms)"
    )
