"""The runner's supervised warm worker set.

``run_tasks`` runs out-of-process cells on long-lived worker processes
borrowed from one process-wide set.  These tests pin what the old
process-per-cell path guaranteed and must keep, now per *worker*: crash
isolation with exit codes, cancellation that terminates and joins, no
reuse after any failure, no survivor when the parent vanishes, one trace
track per cell -- and that reuse changes nothing observable.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.experiments.runner import (
    FailedTask,
    Task,
    run_tasks,
    shutdown_shared_pool,
    worker_stats,
)

ISOLATED = {"on_error": "continue", "isolate": True}


# Module-level so worker processes can unpickle them.
def _pid(_tag):
    return os.getpid()


def _square_or_exit(x):
    if x < 0:
        os._exit(42)  # a segfaulted worker: no exception, no result
    return x * x


def _misbehave(how):
    if how == "crash":
        os._exit(33)
    if how == "raised":
        raise ValueError("cell is cursed")
    time.sleep(30.0)  # "cancel": outlives the test unless terminated


def _write_pid_then_sleep(path, seconds):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(str(os.getpid()))
    time.sleep(seconds)
    return seconds


def _fan_out_then_write_pid(directory, name):
    """A cell that is itself a sweep: leaves two idle workers of its own."""
    run_tasks([Task(_write_pid_then_sleep, (f"{directory}/nested{i}", 0.05))
               for i in range(2)], jobs=2)
    return _write_pid_then_sleep(f"{directory}/{name}", 0.0)


_SLOW_MODULE = "repro_fixture_module_imported_slowly"
_MID_IMPORT = threading.Event()
_FINISH_IMPORT = threading.Event()


def _import_slow_module(directory):
    sys.path.insert(0, directory)
    return __import__(_SLOW_MODULE).VALUE


def _process_is_running(pid):
    """False once ``pid`` has exited (reaped or not)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


def _delta(before):
    return {k: v - before[k] for k, v in worker_stats().items()}


# ---------------------------------------------------------------------------
# Reuse
# ---------------------------------------------------------------------------
def test_cells_share_one_warm_worker_across_calls():
    before = worker_stats()
    first = run_tasks([Task(_pid, (i,)) for i in range(5)], jobs=1, **ISOLATED)
    again = run_tasks([Task(_pid, (i,)) for i in range(5)], jobs=1, **ISOLATED)
    assert len(set(first + again)) == 1
    assert first[0] != os.getpid()
    assert _delta(before) == {"spawns": 1, "crash": 0, "cancel": 0,
                              "raised": 0}


def test_jobs_bounds_the_workers_borrowed():
    before = worker_stats()
    pids = run_tasks([Task(_pid, (i,)) for i in range(12)], jobs=3)
    assert 1 <= len(set(pids)) <= 3
    assert _delta(before)["spawns"] == len(set(pids))


def test_concurrent_sweeps_never_share_a_busy_worker():
    """More borrowing threads than cores, GIL switches forced: a worker
    lent to two sweeps at once would cross their results or lose one."""
    from repro.experiments import runner

    threads, rounds, errors = 6, 8, []

    def sweeps(tid):
        try:
            for r in range(rounds):
                xs = [tid * 1000 + r * 10 + i for i in range(3)]
                got = run_tasks([Task(_square_or_exit, (x,)) for x in xs],
                                jobs=2, **ISOLATED)
                assert got == [x * x for x in xs]
        except BaseException as exc:
            errors.append(exc)

    before = worker_stats()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pool = [threading.Thread(target=sweeps, args=(t,))
                for t in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool) and errors == []
    # Every worker came home exactly once, and none was lost or retired.
    workers = runner._WORKERS
    assert sorted(map(id, workers._idle)) == sorted(map(id, workers._live))
    delta = _delta(before)
    assert 1 <= delta.pop("spawns") == len(workers._live) <= 2 * threads
    assert not any(delta.values())


def test_reused_worker_gives_byte_identical_rows():
    """The same cell, first in a fresh worker and again after 200 other
    cells warmed (and could have polluted) that worker: the same bytes
    on the wire (floats serialize exactly)."""
    import json

    from repro.service.jobs import parse_submission

    def micro(nbytes, computes):
        return parse_submission({
            "kind": "micro", "pattern": "isend_irecv", "nbytes": nbytes,
            "computes": computes, "iters": 2})[1]

    (probe,) = micro(4096, [1e-5])
    filler = micro(2048, [i * 1e-6 for i in range(50)])

    before = worker_stats()
    (fresh,) = run_tasks([probe], jobs=1, **ISOLATED)
    for _ in range(4):
        run_tasks(filler, jobs=1, **ISOLATED)
    (warm,) = run_tasks([probe], jobs=1, **ISOLATED)
    assert _delta(before)["spawns"] == 1  # one worker ran all 202 cells
    assert json.dumps(warm) == json.dumps(fresh) == json.dumps(probe.run())


@pytest.mark.parametrize("spec", [
    {"kind": "micro", "pattern": "isend_irecv", "nbytes": 4096,
     "computes": [0.0, 2e-5], "iters": 3},
    {"kind": "nas", "benchmark": "lu", "klass": "S", "np": [2, 4],
     "niter": 1},
    {"kind": "paper", "section": "fig04", "quick": True},
], ids=lambda spec: spec["kind"])
def test_isolated_equals_serial_for_every_service_job_kind(spec):
    from repro.service.jobs import parse_submission

    _sub, tasks = parse_submission(spec)
    assert run_tasks(tasks, jobs=2, **ISOLATED) == run_tasks(tasks)


# ---------------------------------------------------------------------------
# Failure costs exactly one worker and one cell
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cause", ["crash", "raised", "cancel"])
def test_failure_retires_exactly_one_worker(cause):
    (pid0,) = run_tasks([Task(_pid, (0,))], jobs=1, **ISOLATED)
    before = worker_stats()

    cancel = threading.Event()
    timer = threading.Timer(0.2, cancel.set)
    if cause == "cancel":
        timer.start()
    t0 = time.monotonic()
    (failed,) = run_tasks([Task(_misbehave, (cause,))], jobs=1,
                          cancel=cancel, **ISOLATED)
    timer.cancel()
    assert time.monotonic() - t0 < 10.0
    assert isinstance(failed, FailedTask)
    assert failed.exitcode == (33 if cause == "crash" else None)
    assert failed.cancelled is (cause == "cancel")
    # It ran in the warm worker, which is now gone -- reaped, not a zombie.
    expected = dict.fromkeys(before, 0)
    expected[cause] = 1
    assert _delta(before) == expected
    assert not _process_is_running(pid0)
    assert multiprocessing.active_children() == []

    (pid1,) = run_tasks([Task(_pid, (1,))], jobs=1, **ISOLATED)
    assert pid1 != pid0
    assert _delta(before)["spawns"] == 1


def test_worker_killed_while_idle_costs_no_cell():
    (pid0,) = run_tasks([Task(_pid, (0,))], jobs=1, **ISOLATED)
    before = worker_stats()
    os.kill(pid0, signal.SIGKILL)
    while _process_is_running(pid0):
        time.sleep(0.01)
    (pid1,) = run_tasks([Task(_pid, (1,))], jobs=1, **ISOLATED)
    assert isinstance(pid1, int) and pid1 != pid0
    assert _delta(before) == {"spawns": 1, "crash": 1, "cancel": 0,
                              "raised": 0}
    assert len(multiprocessing.active_children()) == 1  # pid0 was reaped


def test_a_worker_that_cannot_start_leaves_nothing_behind(monkeypatch):
    pipes = []
    real_pipe = multiprocessing.context.BaseContext.Pipe

    def recording_pipe(self, duplex=True):
        pipes.extend(real_pipe(self, duplex))
        return pipes[-2:]

    def refuse(self):
        raise OSError("fork refused")

    monkeypatch.setattr(multiprocessing.context.BaseContext, "Pipe",
                        recording_pipe)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    before = worker_stats()
    with pytest.raises(OSError, match="fork refused"):
        run_tasks([Task(_pid, (0,))], jobs=1, **ISOLATED)
    assert len(pipes) == 2 and all(end.closed for end in pipes)
    monkeypatch.undo()
    shutdown_shared_pool()  # a worker still listed would be joined here
    assert not any(_delta(before).values())


def test_worker_death_under_on_error_raise_is_diagnosed_not_hung():
    """``Pool.imap`` waited forever for a task whose worker died."""
    tasks = [Task(_square_or_exit, (x,)) for x in (3, -1, 4)]
    outcome = []

    def sweep():
        try:
            outcome.append(run_tasks(tasks, jobs=2))
        except BaseException as exc:
            outcome.append(exc)

    before = worker_stats()
    thread = threading.Thread(target=sweep, daemon=True)
    t0 = time.monotonic()
    thread.start()
    thread.join(10.0)
    assert not thread.is_alive(), "run_tasks hung on a dead worker"
    assert time.monotonic() - t0 < 1.0
    (exc,) = outcome
    assert isinstance(exc, RuntimeError)
    assert "square_or_exit(-1,)" in str(exc) and "exitcode 42" in str(exc)
    # No child left behind: whatever is alive is an idle worker.
    delta = _delta(before)
    assert delta["crash"] == 1
    alive = delta["spawns"] - delta["crash"] - delta["cancel"]
    assert len(multiprocessing.active_children()) == alive
    shutdown_shared_pool()
    assert multiprocessing.active_children() == []


def test_raise_mode_propagates_the_tasks_own_exception_with_its_traceback():
    with pytest.raises(ValueError, match="cursed") as info:
        run_tasks([Task(_misbehave, ("raised",)), Task(_pid, (0,))], jobs=2)
    assert "_misbehave" in str(info.value.__cause__)


# ---------------------------------------------------------------------------
# The parent vanishes
# ---------------------------------------------------------------------------
_ORPHAN_SCRIPT = """
import sys
from repro.experiments.runner import Task, run_tasks
from tests.test_runner_workers import (_fan_out_then_write_pid,
                                       _write_pid_then_sleep)
d = sys.argv[1]
# Three workers, forked in this order; the youngest stays busy, and the
# oldest has two idle workers of its own.
run_tasks([Task(_fan_out_then_write_pid, (d, "idle0")),
           Task(_write_pid_then_sleep, (f"{d}/idle1", 0.0)),
           Task(_write_pid_then_sleep, (f"{d}/busy", 1.5))], jobs=3)
"""


def test_workers_exit_when_the_parent_is_killed(tmp_path):
    """SIGKILL the parent of two idle workers and a busy one: the idle
    ones see EOF at once -- even though a younger sibling, which at fork
    inherited copies of their pipes' parent ends, is still running --
    and take their own workers (a cell had fanned out) with them; the
    busy one goes when its cell has nowhere to send its result.
    """
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(repo, "src"), repo, env.get("PYTHONPATH", "")])
    parent = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_SCRIPT, str(tmp_path)], env=env)
    try:
        deadline = time.monotonic() + 20.0
        names = ("idle0", "idle1", "nested0", "nested1", "busy")
        while not all((tmp_path / n).exists() and (tmp_path / n).read_text()
                      for n in names):
            assert time.monotonic() < deadline, "workers never started"
            assert parent.poll() is None
            time.sleep(0.01)
        time.sleep(0.2)  # idle0/idle1 have reported and sit idle
        pids = {n: int((tmp_path / n).read_text()) for n in names}
        assert len(set(pids.values())) == 5
        assert all(_process_is_running(p) for p in pids.values())
    finally:
        parent.send_signal(signal.SIGKILL)
        parent.wait()
    killed = time.monotonic()

    def wait_gone(which, within):
        while any(_process_is_running(pids[n]) for n in which):
            assert time.monotonic() - killed < within, \
                f"{which} outlived the parent by {within} s"
            time.sleep(0.01)

    wait_gone(names[:-1], 1.0)  # while "busy" still sleeps
    wait_gone(names, 2.0)


# ---------------------------------------------------------------------------
# Fork while another thread imports
# ---------------------------------------------------------------------------
def test_worker_forked_mid_import_of_another_thread_does_not_hang(
        tmp_path, monkeypatch):
    """The service forks a worker while its HTTP thread is inside a lazy
    first import; the child inherits that module's lock with no owner to
    release it and used to block forever on its own import of it."""
    (tmp_path / f"{_SLOW_MODULE}.py").write_text(
        "import threading\n"
        "from tests import test_runner_workers as gate\n"
        "if threading.current_thread().name == 'importer':\n"
        "    gate._MID_IMPORT.set()\n"
        "    gate._FINISH_IMPORT.wait(30.0)\n"
        "VALUE = 42\n", encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    importer = threading.Thread(
        target=__import__, args=(_SLOW_MODULE,), name="importer")
    importer.start()
    cancel = threading.Event()
    timer = threading.Timer(10.0, cancel.set)  # a failure, never a hang
    timer.start()
    try:
        assert _MID_IMPORT.wait(10.0)
        (value,) = run_tasks([Task(_import_slow_module, (str(tmp_path),))],
                             cancel=cancel, **ISOLATED)
    finally:
        timer.cancel()
        _FINISH_IMPORT.set()
        importer.join(10.0)
        sys.modules.pop(_SLOW_MODULE, None)
    assert not importer.is_alive()
    assert value == 42, value


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------
def test_traced_cells_on_one_worker_keep_one_track_each():
    from repro.tracing import Tracer, build_trace, validate_trace
    from repro.tracing.merge import flatten_payloads, payload_spans

    tracer = Tracer(process="runner")
    before = worker_stats()
    pids = run_tasks([Task(_pid, (i,)) for i in range(3)], jobs=1,
                     tracer=tracer, **ISOLATED)
    assert len(set(pids)) == 1 and _delta(before)["spawns"] == 1
    flat = flatten_payloads(tracer)
    assert len(flat) == 4  # the root + one payload per cell
    for child in flat[1:]:
        assert child["trace_id"] == tracer.trace_id
        assert [rec.category for rec in payload_spans(child)] \
            == ["runner.task"]
    trace = build_trace(tracer)
    assert validate_trace(trace) == []
    tracks = {ev["pid"] for ev in trace["traceEvents"]
              if ev.get("cat") == "runner.task"}
    assert len(tracks) == 3
