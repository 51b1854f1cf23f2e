"""Tests for the parallel, cached sweep runner."""

import os

import pytest

from repro.core.xfer_table import XferTable
from repro.experiments.runner import (
    CACHE_DIR_ENV,
    ResultCache,
    Task,
    content_key,
    overlap_sweep_parallel,
    run_tasks,
)
from repro.mpisim.config import MpiConfig, mvapich2_like


# Module-level so pool workers can pickle them.
def _square(x):
    return x * x


def _record_call(x, log_path):
    with open(log_path, "a", encoding="utf-8") as fh:
        fh.write(f"{x}\n")
    return x + 1


def _boom(x):
    raise AssertionError("worker must not run on a warm cache")


# ---------------------------------------------------------------------------
# content_key
# ---------------------------------------------------------------------------
def test_key_is_stable_across_equal_values():
    a = content_key(_square, (1, 2.5, "x", (3, 4)), {"cfg": MpiConfig()})
    b = content_key(_square, (1, 2.5, "x", (3, 4)), {"cfg": MpiConfig()})
    assert a == b


def test_key_distinguishes_args_kwargs_and_fn():
    base = content_key(_square, (1,), {})
    assert content_key(_square, (2,), {}) != base
    assert content_key(_square, (1,), {"k": 1}) != base
    assert content_key(_boom, (1,), {}) != base
    # Type structure matters: a tuple is not a scalar, a list is not a tuple.
    assert content_key(_square, ((1,),), {}) != base
    assert content_key(_square, ([1],), {}) != content_key(_square, ((1,),), {})


def test_key_covers_dataclass_field_content():
    a = content_key(_square, (mvapich2_like(),), {})
    b = content_key(_square, (mvapich2_like(),), {})
    c = content_key(_square, (MpiConfig(eager_limit=1),), {})
    assert a == b
    assert a != c


def test_key_covers_xfer_table_content():
    t1 = XferTable([1.0, 2.0], [1e-6, 2e-6])
    t2 = XferTable([1.0, 2.0], [1e-6, 2e-6])
    t3 = XferTable([1.0, 2.0], [1e-6, 3e-6])
    assert content_key(_square, (t1,), {}) == content_key(_square, (t2,), {})
    assert content_key(_square, (t1,), {}) != content_key(_square, (t3,), {})


def test_key_rejects_unhashable_content():
    with pytest.raises(TypeError):
        content_key(_square, (object(),), {})


# ---------------------------------------------------------------------------
# run_tasks
# ---------------------------------------------------------------------------
def test_serial_and_parallel_results_identical():
    tasks = [Task(_square, (i,)) for i in range(6)]
    assert run_tasks(tasks) == run_tasks(tasks, jobs=2) == [i * i for i in range(6)]


def test_results_keep_task_order():
    tasks = [Task(_square, (i,)) for i in (5, 1, 4, 2)]
    assert run_tasks(tasks, jobs=2) == [25, 1, 16, 4]


def test_cache_round_trip_and_counters(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    tasks = [Task(_square, (i,)) for i in range(4)]
    cold = run_tasks(tasks, cache=cache)
    assert (cache.hits, cache.misses) == (0, 4)
    warm_cache = ResultCache(tmp_path / "cache")
    warm = run_tasks(tasks, cache=warm_cache)
    assert warm == cold
    assert (warm_cache.hits, warm_cache.misses) == (4, 0)


def test_warm_cache_never_invokes_the_function(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    log = tmp_path / "calls.log"
    tasks = [Task(_record_call, (i, str(log))) for i in range(3)]
    cold = run_tasks(tasks, cache=cache)
    assert cold == [1, 2, 3]
    assert log.read_text().splitlines() == ["0", "1", "2"]
    # Same keys, poisoned function body would crash if executed -- but the
    # key only hashes *identity* of _record_call, so reuse the real tasks
    # and assert via the call log instead.
    warm = run_tasks(tasks, cache=ResultCache(tmp_path / "cache"))
    assert warm == cold
    assert log.read_text().splitlines() == ["0", "1", "2"]  # no new calls


def test_cache_clear(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    run_tasks([Task(_square, (i,)) for i in range(3)], cache=cache)
    assert cache.clear() == 3
    again = ResultCache(tmp_path / "cache")
    run_tasks([Task(_square, (7,))], cache=again)
    assert again.misses == 1


def test_cache_root_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "envcache"))
    cache = ResultCache()
    assert cache.root == str(tmp_path / "envcache")
    cache.put("ab" + "0" * 62, {"v": 1})
    assert os.path.isdir(tmp_path / "envcache")


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = Task(_square, (3,)).key
    cache.put(key, 9)
    path = cache._path(key)
    with open(path, "wb") as fh:
        fh.write(b"not a pickle")
    fresh = ResultCache(tmp_path / "cache")
    found, _ = fresh.get(key)
    assert not found
    assert fresh.misses == 1


def test_truncated_cache_entry_is_a_miss_and_sweep_recovers(tmp_path):
    """A pickle cut off mid-stream (killed process, full disk) must read
    as a miss: the sweep re-runs that point instead of crashing."""
    cache = ResultCache(tmp_path / "cache")
    tasks = [Task(_square, (i,)) for i in range(4)]
    run_tasks(tasks, cache=cache)
    victim = cache._path(tasks[2].key)
    blob = open(victim, "rb").read()
    assert len(blob) > 4
    with open(victim, "wb") as fh:
        fh.write(blob[: len(blob) // 2])  # truncate mid-pickle

    fresh = ResultCache(tmp_path / "cache")
    results = run_tasks(tasks, cache=fresh)
    assert results == [0, 1, 4, 9]  # recomputed transparently
    assert (fresh.hits, fresh.misses) == (3, 1)


def test_zero_byte_cache_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = Task(_square, (5,)).key
    cache.put(key, 25)
    open(cache._path(key), "wb").close()
    fresh = ResultCache(tmp_path / "cache")
    found, _ = fresh.get(key)
    assert not found
    assert fresh.misses == 1


# ---------------------------------------------------------------------------
# progress reporting
# ---------------------------------------------------------------------------
class _Recorder:
    """Minimal SweepProgress stand-in capturing runner callbacks."""

    def __init__(self):
        self.events = []

    def start(self, total, jobs=1):
        self.events.append(("start", total, jobs))

    def task_done(self, duration, cached=False, name="", failed=False):
        self.events.append(("done", cached, duration >= 0.0))

    def finish(self):
        self.events.append(("finish",))


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_tasks_reports_progress(jobs):
    progress = _Recorder()
    tasks = [Task(_square, (i,)) for i in range(3)]
    assert run_tasks(tasks, jobs=jobs, progress=progress) == [0, 1, 4]
    assert progress.events[0] == ("start", 3, jobs)
    assert progress.events[-1] == ("finish",)
    assert progress.events[1:-1] == [("done", False, True)] * 3


def test_run_tasks_reports_cache_hits_as_cached(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    tasks = [Task(_square, (i,)) for i in range(3)]
    run_tasks(tasks, cache=cache)
    progress = _Recorder()
    run_tasks(tasks, cache=ResultCache(tmp_path / "cache"), progress=progress)
    assert progress.events[1:-1] == [("done", True, True)] * 3


def test_run_tasks_with_sweep_progress_end_to_end(tmp_path):
    from repro.metrics import SweepProgress, load_status

    progress = SweepProgress(tmp_path / "m", label="runner",
                             min_write_interval=0.0)
    run_tasks([Task(_square, (i,)) for i in range(4)], jobs=2,
              progress=progress)
    status = load_status(tmp_path / "m")
    assert status is not None
    assert status["total"] == 4 and status["done"] == 4
    assert status["finished"] is True


# ---------------------------------------------------------------------------
# overlap_sweep_parallel
# ---------------------------------------------------------------------------
def test_parallel_sweep_equals_serial_sweep(tmp_path):
    from repro.experiments.micro import overlap_sweep

    cfg = mvapich2_like()
    computes = [0.0, 5e-5]
    serial = overlap_sweep("isend_irecv", 4096.0, computes, cfg, iters=4, warmup=1)
    cache = ResultCache(tmp_path / "cache")
    par = overlap_sweep_parallel(
        "isend_irecv", 4096.0, computes, cfg, iters=4, warmup=1,
        jobs=2, cache=cache,
    )
    assert [p.compute_time for p in par] == computes
    for a, b in zip(serial, par):
        assert a.sender.to_dict() == b.sender.to_dict()
        assert a.receiver.to_dict() == b.receiver.to_dict()
    # Warm rerun: all hits, identical reports, no simulation.
    warm_cache = ResultCache(tmp_path / "cache")
    warm = overlap_sweep_parallel(
        "isend_irecv", 4096.0, computes, cfg, iters=4, warmup=1,
        cache=warm_cache,
    )
    assert (warm_cache.hits, warm_cache.misses) == (2, 0)
    for a, b in zip(par, warm):
        assert a.sender.to_dict() == b.sender.to_dict()


def test_parallel_sweep_rejects_bad_pattern():
    with pytest.raises(ValueError):
        overlap_sweep_parallel("sendrecv", 1.0, [0.0], MpiConfig())


# ---------------------------------------------------------------------------
# on_error="continue": crashed/raising workers become FailedTask cells
# ---------------------------------------------------------------------------
def _raise_for(x):
    if x == 2:
        raise ValueError(f"cell {x} is cursed")
    return x * 10


def _hard_exit(x):
    if x == 1:
        os._exit(42)  # simulates a segfaulted worker: no exception, no result
    return x * 10


def test_on_error_continue_serial_isolates_failures():
    from repro.experiments.runner import FailedTask

    out = run_tasks([Task(_raise_for, (i,)) for i in range(4)],
                    on_error="continue")
    assert out[0] == 0 and out[1] == 10 and out[3] == 30
    assert isinstance(out[2], FailedTask)
    assert not out[2]  # falsy, so `if value:` skips failed cells
    assert "cursed" in out[2].error
    assert "ValueError" in out[2].traceback


def test_on_error_continue_parallel_isolates_failures():
    from repro.experiments.runner import FailedTask

    out = run_tasks([Task(_raise_for, (i,)) for i in range(4)],
                    jobs=2, on_error="continue")
    assert [out[0], out[1], out[3]] == [0, 10, 30]
    assert isinstance(out[2], FailedTask) and "cursed" in out[2].error


def test_on_error_continue_survives_worker_death():
    from repro.experiments.runner import FailedTask

    out = run_tasks([Task(_hard_exit, (i,)) for i in range(3)],
                    jobs=2, on_error="continue")
    assert out[0] == 0 and out[2] == 20
    assert isinstance(out[1], FailedTask)
    assert out[1].exitcode == 42


def test_on_error_raise_is_still_the_default():
    with pytest.raises(ValueError, match="cursed"):
        run_tasks([Task(_raise_for, (i,)) for i in range(4)])
    with pytest.raises(ValueError, match="cursed"):
        run_tasks([Task(_raise_for, (i,)) for i in range(4)], jobs=2)
    with pytest.raises(ValueError, match="on_error"):
        run_tasks([Task(_square, (1,))], on_error="ignore")


def test_failed_cells_are_not_cached(tmp_path):
    from repro.experiments.runner import FailedTask

    cache = ResultCache(tmp_path / "cache")
    tasks = [Task(_raise_for, (i,)) for i in (1, 2)]
    first = run_tasks(tasks, cache=cache, on_error="continue")
    assert first[0] == 10 and isinstance(first[1], FailedTask)
    again = ResultCache(tmp_path / "cache")
    second = run_tasks(tasks, cache=again, on_error="continue")
    assert second[0] == 10 and isinstance(second[1], FailedTask)
    assert again.hits == 1  # only the good cell was cached; the bad re-ran


def _cursed_late(x):
    """Cell 2 raises once the cells dispatched before it have finished."""
    import time

    if x == 2:
        time.sleep(0.3)
        raise ValueError(f"cell {x} is cursed")
    return x * 10


def _interrupted_at(x):
    if x == 2:
        raise KeyboardInterrupt
    return x * 10


@pytest.mark.parametrize("jobs", [1, 2])
def test_cells_finished_before_a_raising_cell_stay_cached(tmp_path, jobs):
    """The third of five cells raises: the cells that finished before it
    were cached as they landed, so a rerun only runs what is missing."""
    cache = ResultCache(tmp_path / "cache")
    tasks = [Task(_cursed_late, (i,)) for i in range(5)]
    with pytest.raises(ValueError, match="cursed"):
        run_tasks(tasks, jobs=jobs, cache=cache)
    assert [cache.get(task.key) for task in tasks[:3]] \
        == [(True, 0), (True, 10), (False, None)]


def test_an_interrupted_sweep_keeps_the_cells_it_finished(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    tasks = [Task(_interrupted_at, (i,)) for i in range(5)]
    with pytest.raises(KeyboardInterrupt):
        run_tasks(tasks, cache=cache)
    assert [cache.get(task.key)[0] for task in tasks] \
        == [True, True, False, False, False]


# ---------------------------------------------------------------------------
# Bounded ResultCache: LRU eviction, recency, counters
# ---------------------------------------------------------------------------
def _keys(n):
    return [content_key(_square, (i,), {}) for i in range(n)]


def test_cache_unbounded_by_default(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    assert cache.bounded is False
    for i, key in enumerate(_keys(50)):
        cache.put(key, i)
    assert cache.evictions == 0
    for i, key in enumerate(_keys(50)):
        assert cache.get(key) == (True, i)


def test_cache_max_entries_evicts_least_recently_used(tmp_path):
    cache = ResultCache(tmp_path / "cache", max_entries=3)
    k = _keys(5)
    for i in range(4):
        cache.put(k[i], i)
    # k0 was the oldest write -> gone; k1..k3 remain.
    assert cache.get(k[0])[0] is False
    assert cache.get(k[1]) == (True, 1)
    assert cache.evictions == 1
    # The k1 hit refreshed its recency, so the next eviction takes k2.
    cache.put(k[4], 4)
    assert cache.get(k[2])[0] is False
    assert cache.get(k[1]) == (True, 1)
    assert cache.get(k[4]) == (True, 4)
    assert cache.evictions == 2


def test_cache_max_bytes_evicts_until_under_budget(tmp_path):
    k = _keys(3)
    probe = ResultCache(tmp_path / "cache")
    probe.put(k[0], 0)
    size = os.stat(probe._path(k[0])).st_size  # all three values pickle equal-sized

    cache = ResultCache(tmp_path / "cache", max_bytes=2 * size)
    cache.put(k[1], 1)
    assert cache.evictions == 0  # two entries fit exactly
    cache.put(k[2], 2)           # third pushes over budget -> k0 evicted
    assert cache.evictions == 1
    assert cache.get(k[0])[0] is False
    assert cache.get(k[1]) == (True, 1)
    assert cache.get(k[2]) == (True, 2)


def test_cache_max_bytes_strictly_bounds_even_a_lone_entry(tmp_path):
    """An entry larger than the whole byte budget is not retained: the
    bound is a hard ceiling, equivalent to 'too big to cache'."""
    cache = ResultCache(tmp_path / "cache", max_bytes=1)
    key = _keys(1)[0]
    cache.put(key, 0)
    assert cache.get(key)[0] is False
    assert cache.evictions == 1


def test_cache_bound_applies_to_preexisting_entries(tmp_path):
    """A bounded cache opened over an existing store evicts the entries
    a previous (unbounded) writer left, oldest mtime first."""
    import time as _time

    old = ResultCache(tmp_path / "cache")
    k = _keys(4)
    for i in range(3):
        old.put(k[i], i)
        _time.sleep(0.01)  # distinct mtimes seed the recency order

    bounded = ResultCache(tmp_path / "cache", max_entries=2)
    bounded.put(k[3], 3)  # 4 entries on disk, bound is 2 -> evict k0, k1
    assert bounded.evictions == 2
    assert bounded.get(k[0])[0] is False and bounded.get(k[1])[0] is False
    assert bounded.get(k[2]) == (True, 2)
    assert bounded.get(k[3]) == (True, 3)


def test_cache_metrics_counters(tmp_path):
    from repro.metrics import MetricsRegistry, render_openmetrics

    registry = MetricsRegistry()
    cache = ResultCache(tmp_path / "cache", max_entries=1, metrics=registry)
    k = _keys(2)
    cache.get(k[0])          # miss
    cache.put(k[0], 0)
    cache.get(k[0])          # hit
    cache.put(k[1], 1)       # evicts k0
    text = render_openmetrics(registry)
    assert 'repro_cache_lookups_total{outcome="hit"} 1' in text
    assert 'repro_cache_lookups_total{outcome="miss"} 1' in text
    assert "repro_cache_evictions_total 1" in text
    assert (cache.hits, cache.misses, cache.evictions) == (1, 1, 1)


def test_bounded_cache_with_run_tasks_keeps_results_exact(tmp_path):
    cache = ResultCache(tmp_path / "cache", max_entries=2)
    tasks = [Task(_square, (i,)) for i in range(6)]
    assert run_tasks(tasks, cache=cache) == [i * i for i in range(6)]
    # Evictions happened, but a rerun still computes correct values.
    assert cache.evictions == 4
    rerun = ResultCache(tmp_path / "cache", max_entries=2)
    assert run_tasks(tasks, cache=rerun) == [i * i for i in range(6)]


# ---------------------------------------------------------------------------
# Cooperative cancellation
# ---------------------------------------------------------------------------
class _CancelAfter:
    """Duck-typed cancel token: fires after N is_set() polls."""

    def __init__(self, after):
        self.after = after
        self.polls = 0

    def is_set(self):
        self.polls += 1
        return self.polls > self.after


def _sleep_then_square(x):
    import time as _time

    _time.sleep(x)
    return x * x


def test_cancel_serial_raise_raises_sweep_cancelled():
    from repro.experiments.runner import SweepCancelled

    with pytest.raises(SweepCancelled, match="cancelled after 1 of 3"):
        run_tasks([Task(_square, (i,)) for i in range(3)],
                  cancel=_CancelAfter(1))


def test_cancel_serial_continue_marks_remaining_cells():
    from repro.experiments.runner import FailedTask

    out = run_tasks([Task(_square, (i,)) for i in range(4)],
                    on_error="continue", cancel=_CancelAfter(2))
    assert out[0] == 0 and out[1] == 1
    for value in out[2:]:
        assert isinstance(value, FailedTask)
        assert value.cancelled is True and value.error == "cancelled"


def test_cancel_pool_path_raises_sweep_cancelled():
    import threading

    from repro.experiments.runner import SweepCancelled

    event = threading.Event()
    event.set()
    with pytest.raises(SweepCancelled):
        run_tasks([Task(_square, (i,)) for i in range(4)], jobs=2,
                  cancel=event)


def test_cancel_isolated_terminates_inflight_workers():
    import threading
    import time as _time

    from repro.experiments.runner import FailedTask

    event = threading.Event()
    timer = threading.Timer(0.3, event.set)
    timer.start()
    t0 = _time.monotonic()
    out = run_tasks([Task(_sleep_then_square, (30.0,)) for _ in range(3)],
                    jobs=2, on_error="continue", isolate=True, cancel=event)
    elapsed = _time.monotonic() - t0
    timer.cancel()
    # Far less than the 30 s a task sleeps: in-flight workers were
    # terminated, queued tasks never started.
    assert elapsed < 10.0
    assert all(isinstance(v, FailedTask) and v.cancelled for v in out)


def test_cancelled_cells_are_not_cached(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    run_tasks([Task(_square, (i,)) for i in range(4)],
              on_error="continue", cache=cache, cancel=_CancelAfter(2))
    rerun = ResultCache(tmp_path / "cache")
    out = run_tasks([Task(_square, (i,)) for i in range(4)], cache=rerun)
    assert out == [0, 1, 4, 9]
    assert rerun.hits == 2  # only the two completed cells were cached


def test_isolate_requires_on_error_continue():
    with pytest.raises(ValueError, match="isolate"):
        run_tasks([Task(_square, (1,))], isolate=True)


def test_isolate_runs_single_task_out_of_process():
    from repro.experiments.runner import FailedTask

    # A single hard-exiting task with isolate=True must not take the
    # caller down -- even without a pool (jobs=1).
    out = run_tasks([Task(_hard_exit, (1,))], jobs=1, on_error="continue",
                    isolate=True)
    assert isinstance(out[0], FailedTask) and out[0].exitcode == 42
