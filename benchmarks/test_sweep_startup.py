"""Host-performance benchmark: sweep startup overhead with worker reuse.

A CLI invocation renders several figures back to back, each its own
``run_tasks`` sweep.  The runner's worker processes outlive a sweep, so
process fork and first-cell warm-up are paid once per invocation, not
once per sweep.  This benchmark times a short *sequence* of small
parallel sweeps both ways -- workers kept vs killed before every sweep
-- the realistic shape of ``repro.tools`` invocations, and records the
ratio in ``BENCH_simulator.json``.

Run with::

    pytest benchmarks/test_sweep_startup.py --benchmark-only -s
"""

from __future__ import annotations

import time

from repro.experiments.runner import (
    Task,
    run_tasks,
    shutdown_shared_pool,
    worker_stats,
)

#: Sweeps per "CLI invocation" and points per sweep: small on purpose --
#: startup overhead only matters when the work itself is short.
SWEEPS = 4
POINTS = 8


def _point(x: int) -> int:  # module-level: picklable
    return x * x


def _sweep_sequence(reuse: bool) -> list[object]:
    out: list[object] = []
    for s in range(SWEEPS):
        if not reuse:
            shutdown_shared_pool()
        tasks = [Task(_point, (s * POINTS + i,)) for i in range(POINTS)]
        out.extend(run_tasks(tasks, jobs=2))
    return out


def test_sweep_pool_reuse(benchmark, bench_record, emit):
    """Persistent workers vs fresh-workers-per-sweep on a figure-like workload."""
    # Cold reference: measured directly (benchmark fixtures time one
    # callable; the comparison partner is timed by hand around it).
    t0 = time.perf_counter()
    cold_results = _sweep_sequence(reuse=False)
    cold_s = time.perf_counter() - t0

    shutdown_shared_pool()
    spawns_before = worker_stats()["spawns"]

    def warm() -> list[object]:
        return _sweep_sequence(reuse=True)

    warm_results = benchmark.pedantic(warm, rounds=3, iterations=1)
    assert warm_results == cold_results  # reuse changes nothing observable
    # The whole benchmark (3 rounds x SWEEPS sweeps) forked one set of
    # jobs=2 workers; the cold path forks one set per sweep by construction.
    assert 1 <= worker_stats()["spawns"] - spawns_before <= 2
    shutdown_shared_pool()

    warm_s = benchmark.stats.stats.mean
    bench_record["sweep_pool_reuse"] = {
        "sweeps": SWEEPS,
        "points_per_sweep": POINTS,
        "cold_pool_s": round(cold_s, 6),
        "warm_pool_s": round(warm_s, 6),
        "startup_speedup": round(cold_s / warm_s, 2),
    }
    emit(
        "sweep_startup",
        f"sweep startup overhead ({SWEEPS} sweeps x {POINTS} points, jobs=2):\n"
        f"  fresh workers per sweep  {cold_s * 1e3:.1f} ms\n"
        f"  persistent workers       {warm_s * 1e3:.1f} ms\n"
        f"  speedup               {cold_s / warm_s:.2f}x",
    )
    assert warm_s < cold_s  # reuse must actually reduce startup overhead
