"""Host-side cost of span tracing on the sharded full stack.

The tracing subsystem's contract mirrors the metrics registry's: a
``tracer=None`` default that costs nothing, and an attached tracer that
records coarse stage spans (fence rounds, shard advances and injections)
for well under 5% extra wall-clock.  This bench holds the
attached path to that budget on the configuration the explain tool is
built for -- NAS LU on the sharded engine -- and re-checks the
bit-identity contract while it is at it.  Extends
``BENCH_simulator.json`` (key ``tracing_overhead_lu``)::

    pytest benchmarks/test_tracing_overhead.py --benchmark-only
"""

from __future__ import annotations

import statistics
import time

from repro.mpisim.config import mvapich2_like
from repro.nas.base import CpuModel
from repro.nas.lu import lu_app
from repro.runtime import run_app
from repro.tracing import Tracer, flatten_payloads

#: Interleaved (plain, traced) measurement pairs; median of per-pair
#: ratios cancels host drift (see test_telemetry_overhead.py).
PAIRS = 7
#: Absolute slop per pair on top of the 5% budget under test.
NOISE_EPSILON_S = 0.005
SHARDS = 4


def _lu_run(tracer=None):
    return run_app(
        lu_app, 4, config=mvapich2_like(),
        app_args=("A", 2, CpuModel(), None),
        shards=SHARDS, tracer=tracer,
    )


def test_tracing_overhead_under_five_percent(benchmark, bench_record, emit):
    _lu_run()  # warm both paths before timing
    _lu_run(tracer=Tracer(process="warmup"))

    ratios = []
    base_times, with_times = [], []
    plain = result = tracer = None
    for _ in range(PAIRS):
        t0 = time.perf_counter()
        plain = _lu_run()
        base = time.perf_counter() - t0
        tracer = Tracer(process="bench")
        t0 = time.perf_counter()
        result = _lu_run(tracer=tracer)
        dur = time.perf_counter() - t0
        base_times.append(base)
        with_times.append(dur)
        ratios.append(dur / (base + NOISE_EPSILON_S))

    benchmark.pedantic(lambda: _lu_run(tracer=Tracer(process="bench")),
                       rounds=1, iterations=1)

    # Tracing must not change what is simulated...
    for rank in range(4):
        assert plain.report(rank).to_dict() == result.report(rank).to_dict()
    # ...and the tracer must actually have watched the run: one payload
    # per process (coordinator + shards) with spans on each.
    payloads = flatten_payloads(tracer)
    spans_total = sum(len(p.get("spans", ())) for p in payloads)
    assert len(payloads) == 1 + SHARDS
    assert spans_total > 0

    baseline = statistics.median(base_times)
    with_tracing = statistics.median(with_times)
    ratio = statistics.median(ratios)
    overhead_pct = (with_tracing / baseline - 1.0) * 100.0
    bench_record["tracing_overhead_lu"] = {
        "baseline_median_s": round(baseline, 6),
        "tracing_median_s": round(with_tracing, 6),
        "overhead_pct": round(overhead_pct, 2),
        "paired_ratio_median": round(ratio, 4),
        "spans_total": int(spans_total),
        "processes": len(payloads),
    }
    emit(
        "tracing_overhead",
        f"tracing overhead (LU class A, 4 ranks, {SHARDS} shards):\n"
        f"  plain sharded run        {baseline * 1e3:.1f} ms\n"
        f"  with span tracer         {with_tracing * 1e3:.1f} ms\n"
        f"  overhead (medians)       {overhead_pct:+.1f}%\n"
        f"  paired-ratio median      {ratio:.3f}\n"
        f"  spans recorded           {spans_total} "
        f"across {len(payloads)} processes",
    )
    # The tracer's contract: <5% on top of the untraced sharded run.
    assert ratio <= 1.05, (
        f"tracing added {(ratio - 1) * 100:.1f}% (paired-ratio median; "
        f"medians {baseline * 1e3:.1f} ms -> {with_tracing * 1e3:.1f} ms)"
    )
