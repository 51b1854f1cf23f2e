"""Host-performance benchmark: simulation throughput.

Unlike the figure benches (which time one deterministic experiment),
this one exists for its wall-clock numbers: how many simulated engine
events per host second the stack sustains on a standard workload.  Run
with more rounds for stable numbers::

    pytest benchmarks/test_simulator_performance.py --benchmark-only

Besides the pytest-benchmark table, the module writes
``BENCH_simulator.json`` at the repo root: the measured numbers next to
the frozen pre-optimization baseline, so any checkout documents its own
before/after (see ``docs/performance.md``).
"""

from __future__ import annotations

import time

from repro.mpisim.config import mvapich2_like
from repro.nas.base import CpuModel
from repro.nas.lu import lu_app
from repro.runtime import run_app
from repro.sim import Engine

from conftest import BASELINE_PRE_PR

#: Ping-pong timeouts per coroutine and packet-train shape.  The workload
#: mirrors what a full-stack run feeds the engine: interactive coroutine
#: wakeups plus NIC packet trains, one ``post_at`` event per completion.
PING = 20_000
TRAINS = 3
SUBS_PER_TRAIN = 40_000


def _noop(_ev):
    return None


def test_engine_event_throughput(benchmark, bench_record):
    """Engine kernel: simulated-events-retired per host second.

    Two coroutines ping-pong timeouts through the pending store, then
    NIC-style packet trains drain, one pending entry per packet.
    Throughput is events retired over time spent inside ``run()`` --
    train construction is the producer's cost, not the scheduler's.
    """
    laps: list[tuple[int, float]] = []

    def run():
        eng = Engine()

        def worker(n):
            for _ in range(n):
                yield eng.timeout(1e-6)

        eng.process(worker(PING))
        eng.process(worker(PING))
        for t in range(TRAINS):
            base = 1.0 + 0.05 * t
            for i in range(SUBS_PER_TRAIN):
                eng.post_at(base + i * 1e-9).callbacks.append(_noop)
        t0 = time.perf_counter()
        eng.run()
        laps.append((eng.processed_count, time.perf_counter() - t0))
        return eng.processed_count

    events = benchmark(run)
    assert events >= 2 * PING + TRAINS * SUBS_PER_TRAIN
    # Every recorded number times run() only: pytest-benchmark's own mean
    # also counts train construction (the producer's cost, not the
    # scheduler's), which used to leave a misleading mean_s ~6x the run_s
    # in BENCH_simulator.json for the same block.
    best_events, best_s = min(laps, key=lambda lap: lap[1] / lap[0])
    mean_run = sum(s for _, s in laps) / len(laps)
    bench_record["engine_ping_pong"] = {
        "mean_s": round(mean_run, 6),
        "events": events,
        "run_s": round(best_s, 6),
        "events_per_s": round(best_events / best_s),
    }


def test_full_stack_throughput(benchmark, bench_record, emit):
    """NAS LU on the full stack (protocols + instrumentation)."""

    def run():
        result = run_app(
            lu_app, 4, config=mvapich2_like(),
            app_args=("A", 2, CpuModel(), None),
        )
        return result

    result = benchmark.pedantic(run, rounds=5, iterations=1)
    stats = benchmark.stats.stats
    events = sum(r.event_count for r in result.reports)
    baseline = BASELINE_PRE_PR["full_stack_lu"]["mean_s"]
    bench_record["full_stack_lu"] = {
        "mean_s": round(stats.mean, 6),
        "min_s": round(stats.min, 6),
        "instrumented_events": events,
        "simulated_s": round(result.elapsed, 6),
        "speedup_vs_baseline": round(baseline / stats.mean, 2),
    }
    emit(
        "simulator_performance",
        "simulator throughput (LU class A, 4 ranks, 2 iterations):\n"
        f"  host time per run     {stats.mean * 1e3:.1f} ms\n"
        f"  instrumented events   {events}\n"
        f"  simulated time        {result.elapsed * 1e3:.1f} ms\n"
        f"  speedup vs pre-opt    {baseline / stats.mean:.2f}x",
    )
    # ~3x headroom over the optimized mean on a CI-class machine: trips on
    # a real 3x regression, not on scheduler noise.  (The seed floor was
    # 30 s, which only caught order-of-magnitude disasters.)
    assert stats.mean < 0.5
