"""Ablation EA7: the framework's no-tracing design vs full tracing.

Section 5: trace-based approaches must store "voluminous trace files"
while this framework keeps a fixed-size queue.  We attach a TraceSink to
a NAS LU run, compare memory footprints, and verify the bounded pipeline
computed exactly what offline trace analysis computes.
"""

from conftest import run_once

from repro.core.monitor import DEFAULT_QUEUE_CAPACITY
from repro.core.trace import RECORD_NBYTES, TraceSink, replay_overlap
from repro.mpisim.config import mvapich2_like
from repro.nas.lu import lu_app
from repro.runtime.launcher import default_xfer_table, run_app


def test_ablation_trace_vs_profile(benchmark, emit):
    sinks = {}

    def traced_lu(ctx, klass, niter, cpu, planes):
        sink = TraceSink()
        sink.attach(ctx.monitor)
        sinks[ctx.rank] = sink
        result = yield from lu_app(ctx, klass, niter, cpu, planes)
        return result

    def run():
        return run_app(
            traced_lu, 4, config=mvapich2_like(), label="lu-traced",
            app_args=("A", 6, None, None),
        )

    result = run_once(benchmark, run)
    report = result.report(0)
    sink = sinks[0]
    queue_bytes = RECORD_NBYTES * DEFAULT_QUEUE_CAPACITY

    text = [
        "EA7: tracing vs bounded profiling, LU class A / 4 ranks, rank 0",
        f"  events generated           {len(sink)}",
        f"  trace memory               {sink.nbytes_estimate} B (unbounded, grows with run length)",
        f"  framework queue memory     {queue_bytes} B (fixed)",
        f"  profiled overlap bounds    [{report.total.min_overlap_pct:.1f}%, "
        f"{report.total.max_overlap_pct:.1f}%]",
    ]

    # Offline replay of the full trace reproduces the live pipeline exactly.
    replayed = replay_overlap(sink.events, default_xfer_table(result.fabric.params))
    assert replayed.total.min_overlap_time == report.total.min_overlap_time
    assert replayed.total.max_overlap_time == report.total.max_overlap_time
    assert replayed.total.case_counts == report.total.case_counts
    text.append("  offline trace replay       identical bounds (no information lost)")
    emit("ablation_ea7_trace_vs_profile", "\n".join(text))

    # The run is long enough that a trace visibly outgrows the fixed queue.
    assert len(sink) > DEFAULT_QUEUE_CAPACITY
