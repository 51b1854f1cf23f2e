"""Instrumentation overhead (Sec. 4.5, Fig. 20).

"we re-ran the NAS benchmarks using the original, uninstrumented versions
of Open MPI and MVAPICH2.  The results ... show an instrumentation
overhead of less than 0.9% of the total execution time for all test
cases."  Here the instrumented and uninstrumented builds are the same
library with the monitor swapped for a null object, and stamping costs
``overhead_per_event`` of simulated CPU per event.
"""

from __future__ import annotations

import dataclasses

from repro.experiments.nas_char import nas_cell
from repro.nas.base import CpuModel
from repro.runtime.launcher import run_app


@dataclasses.dataclass
class OverheadPoint:
    """Instrumented-vs-uninstrumented run time for one benchmark cell."""

    benchmark: str
    klass: str
    nprocs: int
    time_instrumented: float
    time_uninstrumented: float
    events: int

    @property
    def overhead_pct(self) -> float:
        """Run-time increase caused by the instrumentation (percent)."""
        if self.time_uninstrumented <= 0:
            return 0.0
        return 100.0 * (
            self.time_instrumented / self.time_uninstrumented - 1.0
        )


def measure_overhead(
    benchmark: str,
    klass: str,
    nprocs: int,
    niter: int | None = 2,
    cpu: CpuModel | None = None,
) -> OverheadPoint:
    """Run one benchmark twice -- instrumented and not -- and compare."""
    # ``nonblocking`` only reaches MG, whose overhead cell is the
    # non-blocking code.
    app, config, args = nas_cell(benchmark, klass, niter, cpu=cpu,
                                 nonblocking=True)
    times = {}
    events = 0
    for instrument in (True, False):
        cfg = dataclasses.replace(config, instrument=instrument)
        result = run_app(app, nprocs, config=cfg, app_args=args)
        times[instrument] = result.elapsed
        if instrument:
            events = result.report(0).event_count
    return OverheadPoint(benchmark, klass, nprocs, times[True], times[False], events)


def overhead_suite(
    cells: tuple[tuple[str, str, int], ...] = (
        ("bt", "A", 4),
        ("cg", "A", 4),
        ("lu", "A", 4),
        ("ft", "A", 4),
        ("sp", "A", 4),
        ("mg", "A", 4),
    ),
    niter: int | None = 2,
    cpu: CpuModel | None = None,
) -> list[OverheadPoint]:
    """The Fig.-20 sweep across the NAS suite."""
    return [
        measure_overhead(bench, klass, nprocs, niter=niter, cpu=cpu)
        for bench, klass, nprocs in cells
    ]
