"""Memory budget of the stamp path: bytes per buffered stamp, by count.

Counts, not MiB or seconds: ``tracemalloc`` attributes every live byte to
the frames that allocated it, the simulator is deterministic, so the
numbers repeat exactly.  The rule being held (docs/performance.md, "The
stamp path"): a buffered stamp is one fixed-size record in four typed
columns -- 25 bytes plus the columns' growth slack -- never a Python
object per stamp (the ``TimedEvent``-per-stamp queue this replaced held
~100 B per stamp by the same measure).

Run alone with ``python -m pytest tests/test_memory_budget.py -q``.
"""

import gc
import tracemalloc

import pytest

from repro.core.equeue import CircularEventQueue
from repro.core.monitor import DEFAULT_QUEUE_CAPACITY, Monitor
from repro.experiments.halo import halo_app
from repro.mpisim.config import mvapich2_like
from repro.runtime.launcher import run_app

#: The stamp path.  An allocation belongs to it when one of these files is
#: among the innermost frames of its traceback -- so a record object built
#: by generated code *called from* ``monitor.py`` (a NamedTuple's
#: ``__new__`` lives in ``<string>``) is counted too.
STAMP_PATH = ("core/equeue.py", "core/monitor.py", "core/events.py")
_FRAMES = 3


def _on_stamp_path(stat) -> bool:
    return any(frame.filename.endswith(STAMP_PATH) for frame in stat.traceback)


def _stamp_path_bytes_at_first_finalize(ranks, steps):
    """Run an eager halo; return ``(live stamp-path bytes, buffered stamps)``
    at the moment the first rank's monitor is finalized, i.e. with every
    rank's stamps still in its queue."""
    snapshots = []
    finalize = Monitor.finalize

    def first_finalize(self, *args, **kwargs):
        if not snapshots:
            gc.collect()
            snapshots.append(tracemalloc.take_snapshot())
        return finalize(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Monitor, "finalize", first_finalize)
        tracemalloc.start(_FRAMES)
        try:
            result = run_app(halo_app, ranks, mvapich2_like(),
                             app_args=(steps, 4096.0, 20e-6))
        finally:
            tracemalloc.stop()
    counts = [report.event_count for report in result.reports]
    # Nothing drained before finalize: every stamp was still buffered.
    assert max(counts) < DEFAULT_QUEUE_CAPACITY
    live = sum(stat.size for stat in snapshots[0].statistics("traceback")
               if _on_stamp_path(stat))
    return live, sum(counts)


def test_a_buffered_stamp_costs_at_most_32_bytes():
    """64 ranks x 10 steps against the same job with no steps: the bytes
    the extra stamps hold, per stamp.  (Differencing removes the per-rank
    constant -- processor, hub and registry objects are allocated from
    ``monitor.py`` lines too -- which ``test_idle_queue...`` bounds.)"""
    idle, idle_stamps = _stamp_path_bytes_at_first_finalize(64, 0)
    busy, busy_stamps = _stamp_path_bytes_at_first_finalize(64, 10)
    assert idle_stamps == 64 * 4  # MPI_Init and MPI_Finalize, enter/exit
    assert busy_stamps > 10_000
    per_stamp = (busy - idle) / (busy_stamps - idle_stamps)
    assert 20 < per_stamp <= 32, per_stamp  # 20: guards the measurement


def test_idle_queue_holds_under_1_kib():
    """A default-capacity queue that has seen 10 stamps: the object, its
    four columns and their slack -- O(1) build per rank at 4096 ranks."""
    drain = [].append
    gc.collect()
    tracemalloc.start(_FRAMES)
    try:
        before = tracemalloc.take_snapshot()
        queue = CircularEventQueue(DEFAULT_QUEUE_CAPACITY, drain)
        for i in range(10):
            queue.append(2, 1e-6 * i, i, 4096)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = sum(stat.size_diff for stat in after.compare_to(before, "traceback")
               if _on_stamp_path(stat))
    assert len(queue) == 10
    assert 250 <= held < 1024, held


@pytest.mark.parametrize("capacity", [16, DEFAULT_QUEUE_CAPACITY])
def test_a_drain_releases_what_was_buffered(capacity):
    """The queue starts fresh columns on a drain; nothing accumulates."""
    queue = CircularEventQueue(capacity, lambda batch: None)
    gc.collect()
    tracemalloc.start(_FRAMES)
    try:
        before = tracemalloc.take_snapshot()
        for i in range(10 * capacity):
            queue.append(2, 1e-6 * i, i, 4096)
        queue.flush()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = sum(stat.size_diff for stat in after.compare_to(before, "traceback")
               if _on_stamp_path(stat))
    assert queue.drains == 10 and len(queue) == 0
    assert held < 1024, held
