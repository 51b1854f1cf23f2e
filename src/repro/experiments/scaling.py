"""Scalability of the instrumentation design (paper Sec. 2.4).

"Because the instrumentation itself involves no interprocessor
communications, and is not dependent on the number of processors used by
the application (except for the startup and shutdown), it is scalable to
large processor counts."

The check: run a weak-scaled workload (fixed communication volume per
rank) at growing rank counts and verify that the per-rank instrumentation
footprint -- events stamped, queue drains, and the run-time overhead
percentage -- stays flat.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.mpisim.config import MpiConfig, openmpi_like
from repro.runtime.launcher import run_app
from repro.runtime.world import RankContext


@dataclasses.dataclass
class ScalePoint:
    """Instrumentation footprint at one rank count."""

    nprocs: int
    events_per_rank: float
    drains_per_rank: float
    overhead_pct: float
    min_pct: float
    max_pct: float


def _weak_scaled_app(ctx: RankContext, rounds: int, nbytes: float) -> typing.Generator:
    """Ring exchange: every rank sends/receives ``rounds`` messages and
    computes between initiation and wait -- per-rank work independent of
    the rank count."""
    right = (ctx.rank + 1) % ctx.size
    left = (ctx.rank - 1) % ctx.size
    for _ in range(rounds):
        rreq = yield from ctx.comm.irecv(left, 1)
        sreq = yield from ctx.comm.isend(right, 1, nbytes)
        yield from ctx.compute(100e-6)
        yield from ctx.comm.waitall([sreq, rreq])


def scaling_sweep(
    proc_counts: typing.Sequence[int] = (2, 4, 8, 16, 32),
    rounds: int = 25,
    nbytes: float = 32 * 1024,
    config: MpiConfig | None = None,
    queue_capacity: int = 256,
) -> list[ScalePoint]:
    """Measure per-rank instrumentation footprint across rank counts."""
    base = config or openmpi_like()
    points: list[ScalePoint] = []
    for nprocs in proc_counts:
        times = {}
        events = drains = 0.0
        min_pct = max_pct = 0.0
        for instrument in (True, False):
            cfg = dataclasses.replace(
                base, instrument=instrument, queue_capacity=queue_capacity
            )
            result = run_app(
                _weak_scaled_app, nprocs, config=cfg,
                app_args=(rounds, nbytes),
            )
            times[instrument] = result.elapsed
            if instrument:
                events = sum(r.event_count for r in result.reports) / nprocs
                # Queue drains are not exposed on the report; approximate
                # from event count (pushes / capacity), which is exact for
                # full batches.
                drains = events / queue_capacity
                min_pct = result.report(0).total.min_overlap_pct
                max_pct = result.report(0).total.max_overlap_pct
        overhead = (
            100.0 * (times[True] / times[False] - 1.0) if times[False] > 0 else 0.0
        )
        points.append(
            ScalePoint(nprocs, events, drains, overhead, min_pct, max_pct)
        )
    return points
