"""Parallel, cached execution of independent experiment sweeps.

Every figure in the paper's evaluation is a sweep over independent points
(inserted-computation values, message sizes, process counts).  Each point
is a pure function of its configuration -- the simulator is deterministic
-- so two orthogonal speedups apply:

* **fan-out**: independent points run concurrently on long-lived
  worker processes, with results returned in task order so a parallel
  sweep is indistinguishable from a serial one;
* **memoisation**: a point's result is stored on disk under a content
  hash of everything that determines it (function identity, arguments,
  configuration dataclasses, the transfer-time table).  Re-rendering a
  figure after an unrelated edit is a cache hit and skips the simulation
  entirely.

The cache key is structural, not positional: it hashes a canonical JSON
encoding of the task, so equal configurations hash equally regardless of
object identity.  Bump :data:`CACHE_VERSION` when a change invalidates
previously stored results (e.g. the bounds arithmetic changes); stale
entries are then simply never looked up again.

Worker functions must be module-level (picklable) and must return
picklable values -- return plain data or ``to_dict()`` payloads, never
:class:`~repro.runtime.launcher.RunResult` (it holds the live fabric).
"""

from __future__ import annotations

import atexit
import dataclasses
import hashlib
import importlib
import json
import multiprocessing
import multiprocessing.connection
import os
import pathlib
import pickle
import sys
import tempfile
import threading
import time
import traceback
import typing

from repro.tracing.span import Tracer, use_tracer

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.metrics import SweepProgress

#: Bump to invalidate every previously cached result (schema or
#: simulation-semantics changes).
CACHE_VERSION = 1

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default on-disk cache root (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_cache"


# ---------------------------------------------------------------------------
# Content hashing
# ---------------------------------------------------------------------------
def _encode(obj: object) -> object:
    """Canonical JSON-compatible encoding of a task ingredient.

    Equal values encode equally; type information is kept so that e.g.
    the tuple ``(1,)`` and the list ``[1]`` do not collide with scalars.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr() is exact for floats (round-trips); json would also do,
        # but being explicit keeps the key stable across json versions.
        return {"__float__": repr(obj)}
    if isinstance(obj, (list, tuple)):
        return {
            "__seq__": type(obj).__name__,
            "items": [_encode(x) for x in obj],
        }
    if isinstance(obj, dict):
        return {
            "__map__": sorted(
                (str(k), _encode(v)) for k, v in obj.items()
            )
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": f"{type(obj).__module__}.{type(obj).__qualname__}",
            "fields": {
                f.name: _encode(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if callable(obj) and hasattr(obj, "__qualname__"):
        # Functions contribute identity, not code: renaming or moving a
        # worker deliberately invalidates its cached results.
        return {
            "__callable__": f"{getattr(obj, '__module__', '?')}."
            f"{obj.__qualname__}"
        }
    dumps = getattr(obj, "dumps", None)
    if callable(dumps):  # e.g. XferTable: full measured content
        return {"__dumps__": type(obj).__qualname__, "text": dumps()}
    to_dict = getattr(obj, "to_dict", None)
    if callable(to_dict):
        return {"__to_dict__": type(obj).__qualname__, "data": _encode(to_dict())}
    tolist = getattr(obj, "tolist", None)
    if callable(tolist):  # numpy arrays / scalars
        return {"__array__": _encode(tolist())}
    raise TypeError(
        f"cannot build a cache key from {type(obj).__qualname__!r}; give the "
        "object a dumps()/to_dict() method or pass plain data"
    )


def content_key(fn: typing.Callable, args: tuple, kwargs: dict) -> str:
    """Hex digest identifying one task's full input content."""
    payload = {
        "version": CACHE_VERSION,
        "fn": _encode(fn),
        "args": _encode(tuple(args)),
        "kwargs": _encode(dict(kwargs)),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The task unit and the on-disk cache
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class Task:
    """One unit of sweep work: ``fn(*args, **kwargs)``.

    ``fn`` must be a module-level callable (workers unpickle it by
    qualified name) and its return value must be picklable.
    """

    fn: typing.Callable
    args: tuple = ()
    kwargs: dict = dataclasses.field(default_factory=dict)

    @property
    def key(self) -> str:
        return content_key(self.fn, self.args, self.kwargs)

    def run(self) -> object:
        return self.fn(*self.args, **self.kwargs)


class ResultCache:
    """Content-addressed pickle store for sweep-point results.

    Layout: ``<root>/<key[:2]>/<key>.pkl`` -- two-level fan-out keeps any
    one directory small.  Writes are atomic (tmp file + ``os.replace``),
    so a crashed or interrupted sweep never leaves a truncated entry.

    By default the store is unbounded (a CLI cache on a developer machine
    is a feature, not a leak).  A long-lived service writing to it is a
    different story: pass ``max_entries`` and/or ``max_bytes`` to bound
    it, and the least-recently-*used* entries (hits refresh recency) are
    evicted on write.  ``metrics`` (optional
    :class:`~repro.metrics.MetricsRegistry`) exposes hit/miss/eviction
    counters; several caches sharing one registry accumulate into the
    same counters.
    """

    def __init__(self, root: "str | os.PathLike | None" = None,
                 max_entries: "int | None" = None,
                 max_bytes: "int | None" = None,
                 metrics: "object | None" = None) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        self.root = os.fspath(root)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        #: key -> (recency tick, size); lazily built from disk the first
        #: time a bound must be enforced.  ``None`` means "not scanned".
        self._index: "dict[str, tuple[float, int]] | None" = None
        self._tick = 0.0
        self._hits_c = self._misses_c = self._evictions_c = None
        if metrics is not None:
            self._hits_c = metrics.counter(  # type: ignore[attr-defined]
                "repro_cache_lookups", "Result-cache lookups by outcome",
                labels={"outcome": "hit"})
            self._misses_c = metrics.counter(  # type: ignore[attr-defined]
                "repro_cache_lookups", labels={"outcome": "miss"})
            self._evictions_c = metrics.counter(  # type: ignore[attr-defined]
                "repro_cache_evictions", "Result-cache LRU evictions")

    @property
    def bounded(self) -> bool:
        return self.max_entries is not None or self.max_bytes is not None

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".pkl")

    def _next_tick(self) -> float:
        self._tick += 1.0
        return self._tick

    def _scan_index(self) -> "dict[str, tuple[float, int]]":
        """Build the LRU index from disk (mtime seeds the recency order)."""
        index: "dict[str, tuple[float, int]]" = {}
        if not os.path.isdir(self.root):
            return index
        entries = []
        for sub in os.listdir(self.root):
            subdir = os.path.join(self.root, sub)
            if not os.path.isdir(subdir):
                continue
            for name in os.listdir(subdir):
                if not name.endswith(".pkl"):
                    continue
                try:
                    st = os.stat(os.path.join(subdir, name))
                except OSError:
                    continue
                entries.append((st.st_mtime, name[:-4], st.st_size))
        entries.sort()
        for mtime, key, size in entries:
            index[key] = (self._next_tick(), size)
        return index

    def _touch(self, key: str, size: "int | None" = None) -> None:
        """Refresh ``key``'s recency (and size, when known) in the index."""
        if not self.bounded:
            return
        if self._index is None:
            self._index = self._scan_index()
        old = self._index.get(key)
        if size is None:
            size = old[1] if old is not None else 0
        self._index[key] = (self._next_tick(), size)

    def _evict_over_bound(self) -> None:
        assert self._index is not None
        while True:
            over_entries = (self.max_entries is not None
                            and len(self._index) > self.max_entries)
            over_bytes = (self.max_bytes is not None
                          and sum(s for _, s in self._index.values())
                          > self.max_bytes)
            if not (over_entries or over_bytes) or not self._index:
                return
            victim = min(self._index, key=lambda k: self._index[k][0])  # type: ignore[index]
            del self._index[victim]
            try:
                os.unlink(self._path(victim))
            except OSError:
                pass
            self.evictions += 1
            if self._evictions_c is not None:
                self._evictions_c.inc()

    def get(self, key: str) -> "tuple[bool, object]":
        """Return ``(found, value)``; counts a hit or a miss.

        A corrupt entry -- truncated write, bit rot, a stale pickle
        referencing since-renamed classes -- is indistinguishable from a
        miss: ``pickle.load`` on garbage can raise nearly anything
        (``UnpicklingError``, ``EOFError``, ``AttributeError``,
        ``ImportError``, ``MemoryError``...), so anything short of an
        exiting exception means "re-run the point", never "crash the
        sweep".
        """
        try:
            with open(self._path(key), "rb") as fh:
                value = pickle.load(fh)
        except Exception:
            with self._lock:
                self.misses += 1
                if self._misses_c is not None:
                    self._misses_c.inc()
            return False, None
        with self._lock:
            self.hits += 1
            if self._hits_c is not None:
                self._hits_c.inc()
            self._touch(key)
        return True, value

    def put(self, key: str, value: object) -> None:
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if self.bounded:
            with self._lock:
                try:
                    size = os.stat(path).st_size
                except OSError:
                    size = 0
                self._touch(key, size)
                self._evict_over_bound()

    def describe(self) -> "dict[str, typing.Any]":
        """Where the store lives and how it has fared (``/healthz``)."""
        return {
            "root": self.root,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        if not os.path.isdir(self.root):
            return removed
        for sub in os.listdir(self.root):
            subdir = os.path.join(self.root, sub)
            if not os.path.isdir(subdir):
                continue
            for name in os.listdir(subdir):
                if name.endswith(".pkl"):
                    try:
                        os.unlink(os.path.join(subdir, name))
                        removed += 1
                    except OSError:
                        pass
        return removed


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class FailedTask:
    """Placeholder result for a sweep point whose worker raised or died.

    With ``run_tasks(..., on_error="continue")`` a failing point yields
    one of these in its result slot instead of aborting the whole sweep;
    the remaining points still run.  Failed cells are never cached, so a
    re-run retries them.
    """

    name: str
    error: str
    traceback: str = ""
    #: Worker process exit code when the worker died without reporting
    #: (crash / signal); ``None`` for an in-worker Python exception.
    exitcode: "int | None" = None
    #: True when the cell never completed because the sweep's ``cancel``
    #: event fired (the service's ``DELETE /v1/jobs/{id}`` path).
    cancelled: bool = False

    def __bool__(self) -> bool:
        # A failed cell is falsy so sweep code can filter results with a
        # plain truthiness check.
        return False


class SweepCancelled(RuntimeError):
    """Raised by :func:`run_tasks` under ``on_error="raise"`` when the
    ``cancel`` event fires mid-sweep."""


def _cancelled_cell(task: Task) -> FailedTask:
    return FailedTask(_task_name(task), "cancelled", cancelled=True)


def _task_name(task: Task) -> str:
    fn = getattr(task.fn, "__name__", str(task.fn)).lstrip("_")
    return f"{fn}{task.args[:2]!r}" if task.args else fn


def _run_task(task: Task, failsafe: bool, tracer: "Tracer | None" = None
              ) -> "tuple[float, object, Exception | None]":
    """Run one task; returns ``(host seconds, value, exception)``.

    ``failsafe`` turns an exception into a :class:`FailedTask` value
    (returned next to the exception itself); otherwise it propagates.
    With a ``tracer`` the cell runs inside a ``runner.task`` span with
    the tracer installed ambiently, so ``run_app`` deep inside the cell
    picks it up without a signature change -- task argument tuples are
    content-hash cache keys.
    """
    if tracer is not None:
        with use_tracer(tracer), \
                tracer.span(f"task {_task_name(task)}", "runner.task"):
            return _run_task(task, failsafe)
    t0 = time.perf_counter()
    try:
        value, exc = task.run(), None
    except Exception as caught:
        if not failsafe:
            raise
        exc = caught
        value = FailedTask(
            _task_name(task),
            f"{type(exc).__name__}: {exc}",
            traceback.format_exc(),
        )
    return time.perf_counter() - t0, value, exc


def _worker_main(conn: "multiprocessing.connection.Connection") -> None:
    """Worker process: serve ``(task, trace_wire)`` requests until EOF.

    Each request is answered with ``(host seconds, value, exception,
    span payload)``; ``trace_wire`` (a :meth:`Tracer.child_wire` dict or
    ``None``) makes the cell join the parent's trace.  The loop ends when
    every parent end of the pipe is closed (worker retired, parent gone).
    """
    try:
        while True:
            task, trace_wire = conn.recv()
            tracer = Tracer.adopt(trace_wire) if trace_wire is not None else None
            dur, value, exc = _run_task(task, True, tracer)
            spans = tracer.to_payload() if tracer is not None else None
            try:
                conn.send((dur, value, exc, spans))
            except Exception as unsendable:  # pickling failed: nothing was written
                if not isinstance(value, FailedTask):
                    value = FailedTask(_task_name(task),
                                       f"result not picklable: {unsendable}")
                conn.send((dur, value, None, spans))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        _WORKERS.shutdown()  # workers of its own, if a cell fanned out


class _Worker(typing.NamedTuple):
    proc: "multiprocessing.process.BaseProcess"
    conn: "multiprocessing.connection.Connection"  # the parent end


class _WorkerSet:
    """The process-wide set of long-lived, individually supervised workers.

    Every out-of-process :func:`run_tasks` call -- ``jobs > 1`` or
    ``isolate=True``, from any thread -- borrows idle workers from here
    and returns the healthy ones, so process fork and the first-cell
    import/memo warm-up are paid once per worker, not once per cell or
    sweep.  A worker whose cell raised, was cancelled or died is retired
    (terminated *and joined*) and never reused: its state is no longer
    trusted, and a replacement is forked on demand.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._live: "set[_Worker]" = set()  # idle or borrowed
        self._idle: "list[_Worker]" = []
        #: Workers ever forked / retired by cause (``/v1/metrics``).
        self.stats = {"spawns": 0, "crash": 0, "cancel": 0, "raised": 0}

    def borrow(self) -> _Worker:
        """The most recently used idle worker, or a newly forked one."""
        with self._lock:
            while self._idle:
                worker = self._idle.pop()
                if worker.proc.is_alive():
                    return worker
                self._live.discard(worker)  # died idle (OOM kill, signal)
                self.stats["crash"] += 1
                worker.conn.close()
            ctx = multiprocessing.get_context()
            conn, child_conn = ctx.Pipe()
            # Non-daemonic: a cell may itself fork (``run_app(shards=k)``
            # runs one process per shard), which daemonic processes may not.
            # Live before the fork: the child closes its copy of ``conn``.
            proc = ctx.Process(target=_worker_main, args=(child_conn,))
            worker = _Worker(proc, conn)
            self._live.add(worker)
            try:
                proc.start()
            except BaseException:
                self._live.discard(worker)
                conn.close()
                child_conn.close()
                raise
            child_conn.close()
            self.stats["spawns"] += 1
            return worker

    def release(self, worker: _Worker) -> None:
        """Return a worker whose cell completed cleanly to the idle set."""
        with self._lock:
            if worker in self._live:  # else shutdown() already killed it
                self._idle.append(worker)

    def retire(self, worker: _Worker, cause: str) -> "int | None":
        """Terminate and join a borrowed worker; returns its exit code."""
        with self._lock:
            if worker in self._live:
                self._live.discard(worker)
                self.stats[cause] += 1
        worker.proc.terminate()
        worker.proc.join()  # always: an unjoined child stays a zombie
        worker.conn.close()
        return worker.proc.exitcode

    def shutdown(self) -> None:
        with self._lock:
            doomed, idle = list(self._live), set(self._idle)
            self._live.clear()
            self._idle.clear()
        for worker in doomed:
            worker.proc.terminate()
            worker.proc.join()
            if worker in idle:  # a borrower closes its own (it may be polling it)
                worker.conn.close()


_WORKERS = _WorkerSet()


def _forget_inherited_workers() -> None:
    """In a forked child: close its copies of the parent's pipe ends (a
    worker's own included: it sees EOF only once every copy is gone),
    drop the parent's worker set and forget the imports other threads
    had in flight.

    Only the forking thread exists here, so a module another thread was
    importing at the fork (the service's HTTP thread, lazily, on a first
    submission) stays locked by an owner that will never release it: the
    child's first import of it -- unpickling a task is enough -- would
    block forever.  Forget every such lock and evict the half-built module
    so the child imports it afresh.  Selected by lock owner, not by
    ``__spec__._initializing``: a module still in its find phase holds a
    lock without being in ``sys.modules``.
    """
    global _WORKERS
    for worker in _WORKERS._live:
        worker.conn.close()
    _WORKERS = _WorkerSet()
    me = threading.get_ident()
    locks = importlib._bootstrap._module_locks
    for name, ref in list(locks.items()):
        lock = ref()
        if lock is not None and lock.owner not in (None, me):
            del locks[name]
            sys.modules.pop(name, None)


os.register_at_fork(after_in_child=_forget_inherited_workers)


def worker_stats() -> "dict[str, int]":
    """Process-wide counters: ``spawns``, and ``crash`` / ``cancel`` / ``raised`` retirements."""
    return dict(_WORKERS.stats)


def shutdown_shared_pool() -> None:
    """Kill every worker process (no-op when none is alive).

    Registered via :mod:`atexit`; call it explicitly to reclaim the
    workers early.  Cells in flight on another thread fail as worker deaths.
    """
    _WORKERS.shutdown()


atexit.register(shutdown_shared_pool)


def _run_on_workers(
    tasks: "list[Task]",
    pending: "list[int]",
    jobs: int,
    settle: "typing.Callable[[int, float, object], None]",
    cancel: "typing.Any | None",
    tracer: "Tracer | None",
    on_error: str,
) -> None:
    """Fan tasks across at most ``jobs`` borrowed worker processes.

    The out-of-process half of :func:`run_tasks` (which documents the
    failure and cancel policies).  A worker that dies outright --
    segfault, OOM kill, ``os._exit`` -- surfaces as ``EOFError`` on the
    parent's end of its pipe and takes only its in-flight cell with it.
    Each cell is handed to ``settle(task index, seconds, value)`` the
    moment it lands, so ordering stays deterministic, and no path leaves
    a borrowed worker running.
    """
    inflight: "dict[object, tuple[int, _Worker, float]]" = {}  # by parent conn
    next_slot = 0

    try:
        while next_slot < len(pending) or inflight:
            if cancel is not None and cancel.is_set():
                if on_error == "raise":
                    raise SweepCancelled(
                        f"sweep cancelled after {next_slot - len(inflight)} "
                        f"of {len(pending)} pending tasks")
                for slot, worker, t0 in inflight.values():
                    _WORKERS.retire(worker, "cancel")
                    settle(pending[slot], time.perf_counter() - t0,
                           _cancelled_cell(tasks[pending[slot]]))
                inflight.clear()
                for slot in range(next_slot, len(pending)):
                    settle(pending[slot], 0.0,
                           _cancelled_cell(tasks[pending[slot]]))
                break
            while next_slot < len(pending) and len(inflight) < jobs:
                task = tasks[pending[next_slot]]
                wire = (tracer.child_wire(f"cell {_task_name(task)}")
                        if tracer is not None else None)
                worker = _WORKERS.borrow()
                inflight[worker.conn] = (next_slot, worker, time.perf_counter())
                next_slot += 1
                try:
                    worker.conn.send((task, wire))
                except OSError:
                    pass  # it died this instant: the EOF below reports it
            # Poll with a timeout when cancellable so a cancel fired
            # mid-cell is noticed promptly, not at the next completion.
            for conn in multiprocessing.connection.wait(
                    list(inflight), timeout=0.05 if cancel is not None else None):
                slot, worker, t0 = inflight.pop(conn)
                try:
                    dur, value, exc, spans = worker.conn.recv()
                except (EOFError, OSError):  # died before reporting
                    exitcode = _WORKERS.retire(worker, "crash")
                    dur, exc = time.perf_counter() - t0, None
                    value = FailedTask(
                        _task_name(tasks[pending[slot]]),
                        f"worker died without a result (exitcode {exitcode})",
                        exitcode=exitcode,
                    )
                else:
                    if tracer is not None:
                        tracer.absorb(spans)
                    if isinstance(value, FailedTask):
                        _WORKERS.retire(worker, "raised")
                    else:
                        _WORKERS.release(worker)
                if on_error == "raise" and isinstance(value, FailedTask):
                    if exc is None:
                        exc = RuntimeError(f"task {value.name}: {value.error}")
                    raise exc from RuntimeError(
                        f"in a worker process:\n{value.traceback}")
                settle(pending[slot], dur, value)
    finally:
        for _slot, worker, _t0 in inflight.values():
            _WORKERS.retire(worker, "cancel")


def run_tasks(
    tasks: typing.Sequence[Task],
    jobs: "int | None" = None,
    cache: "ResultCache | None" = None,
    progress: "SweepProgress | None" = None,
    on_error: str = "raise",
    cancel: "typing.Any | None" = None,
    isolate: bool = False,
    tracer: "Tracer | None" = None,
) -> list[object]:
    """Run ``tasks`` and return their results **in task order**.

    ``jobs`` counts worker processes: ``None`` or ``1`` runs serially in
    this process (no worker, no pickling); ``jobs > 1`` fans uncached
    tasks across that many workers borrowed from the process-wide
    :class:`_WorkerSet`, which outlives the call -- a CLI invocation
    that renders several sweeps, or a service that runs thousands of
    jobs, pays process startup once per worker.  ``cache`` (optional) is
    consulted before any work and updated as each cell finishes; only
    cache misses are executed.  ``progress`` (optional
    :class:`~repro.metrics.SweepProgress`) receives one ``task_done``
    per task -- cache hits immediately, executed tasks with their
    measured duration as results stream back -- and is ``finish()``-ed
    before returning.

    ``on_error`` selects the failure policy.  ``"raise"`` (the default)
    propagates the first failing task's exception; a worker process
    that dies outright raises a ``RuntimeError`` naming the cell and the
    exit code.  ``"continue"`` hardens the sweep against bad cells: a
    task that raises -- or whose worker process dies -- leaves a
    :class:`FailedTask` in its result slot and every other point still
    runs.  Failed cells are never cached.  Either way a failure costs
    the worker it happened in (never reused) and only its in-flight
    cell.

    ``cancel`` (optional; anything with ``is_set()``, e.g. a
    :class:`threading.Event`) makes the sweep cooperatively cancellable:
    it is checked between tasks, and in-flight worker processes are
    terminated and joined.  Under ``on_error="continue"`` cancelled
    cells resolve to :class:`FailedTask` placeholders with
    ``cancelled=True``; under ``on_error="raise"`` a fired cancel raises
    :class:`SweepCancelled`.

    ``isolate=True`` (requires ``on_error="continue"``) runs every cell
    in a supervised worker process even for a single task or ``jobs=1``
    -- this is how the analysis service keeps a crashing job from taking
    the server down, and what makes its ``DELETE`` endpoint able to kill
    a running job without orphaning processes.

    Determinism: results are positionally identical to a serial run
    regardless of ``jobs``, cache state, worker reuse, or progress
    publication, because every task is an independent pure function and
    results are slotted by task index.

    ``tracer`` (optional :class:`~repro.tracing.Tracer`) records a
    ``runner.cache`` span for the cache probe and one ``runner.task``
    span per executed task; worker processes join the trace via a wire
    context sent with the task and their span payloads are absorbed, so
    the merged timeline shows every cell on its own track.  Results are
    bit-identical with and without a tracer.
    """
    if on_error not in ("raise", "continue"):
        raise ValueError(
            f"on_error must be 'raise' or 'continue', got {on_error!r}"
        )
    if isolate and on_error != "continue":
        raise ValueError("isolate=True requires on_error='continue'")
    tasks = list(tasks)
    results: list[object] = [None] * len(tasks)
    pending: list[int] = []
    keys: list[str | None] = [None] * len(tasks)
    jobs = jobs or 1

    if progress is not None:
        progress.start(len(tasks), jobs)

    if cache is not None:
        probe_t0 = tracer.now() if tracer is not None else 0.0
        for i, task in enumerate(tasks):
            key = keys[i] = task.key
            found, value = cache.get(key)
            if found:
                results[i] = value
                if progress is not None:
                    progress.task_done(0.0, cached=True, name=_task_name(task))
            else:
                pending.append(i)
        if tracer is not None:
            tracer.add_span("cache probe", "runner.cache", probe_t0,
                            tracer.now(),
                            {"hits": len(tasks) - len(pending),
                             "misses": len(pending)})
    else:
        pending = list(range(len(tasks)))

    def settle(i: int, dur: float, value: object) -> None:
        # Cached the moment it lands: an interrupt or a raising cell
        # later in the sweep must not throw finished cells away.
        results[i] = value
        failed = isinstance(value, FailedTask)
        if cache is not None and not failed:
            cache.put(typing.cast(str, keys[i]), value)
        if progress is not None:
            progress.task_done(dur, name=_task_name(tasks[i]), failed=failed)

    if isolate or (jobs > 1 and len(pending) > 1):
        _run_on_workers(
            tasks, pending, max(1, min(jobs, len(pending))), settle, cancel,
            tracer, on_error,
        )
    else:
        for n, i in enumerate(pending):
            if cancel is not None and cancel.is_set():
                if on_error == "raise":
                    raise SweepCancelled(
                        f"sweep cancelled after {n} of {len(pending)} "
                        "pending tasks"
                    )
                for j in pending[n:]:
                    settle(j, 0.0, _cancelled_cell(tasks[j]))
                break
            dur, value, _exc = _run_task(tasks[i], on_error == "continue",
                                         tracer)
            settle(i, dur, value)

    if progress is not None:
        progress.finish()
    return results


# ---------------------------------------------------------------------------
# Parallel overlap sweep (the Sec. 3 micro figures)
# ---------------------------------------------------------------------------
def _sweep_point(
    pattern: str,
    nbytes: float,
    compute: float,
    config: object,
    params: object,
    xfer_table_text: "str | None",
    iters: int,
    warmup: int,
) -> "tuple[float, dict, dict]":
    """Worker: one compute value of the overlap test; returns plain data."""
    from repro.core.xfer_table import XferTable
    from repro.experiments.micro import overlap_sweep

    table = (
        XferTable.loads(xfer_table_text) if xfer_table_text is not None else None
    )
    (point,) = overlap_sweep(
        pattern,
        nbytes,
        [compute],
        config,  # type: ignore[arg-type]
        params=params,  # type: ignore[arg-type]
        xfer_table=table,
        iters=iters,
        warmup=warmup,
    )
    return (compute, point.sender.to_dict(), point.receiver.to_dict())


def overlap_sweep_parallel(
    pattern: str,
    nbytes: float,
    compute_times: typing.Sequence[float],
    config: object,
    params: object = None,
    xfer_table: object = None,
    iters: int = 50,
    warmup: int = 3,
    jobs: "int | None" = None,
    cache: "ResultCache | None" = None,
) -> list:
    """:func:`repro.experiments.micro.overlap_sweep`, fanned and cached.

    Point-for-point equal to the serial sweep (same reports, same order);
    see ``tests/test_experiments_runner.py`` for the equivalence test.
    """
    from repro.core.report import OverlapReport
    from repro.experiments.micro import PATTERNS, MicroPoint

    if pattern not in PATTERNS:
        raise ValueError(f"pattern must be one of {PATTERNS}, got {pattern!r}")
    table_text = xfer_table.dumps() if xfer_table is not None else None  # type: ignore[attr-defined]
    tasks = [
        Task(
            _sweep_point,
            (pattern, nbytes, compute, config, params, table_text, iters, warmup),
        )
        for compute in compute_times
    ]
    points = []
    for compute, sender_d, receiver_d in run_tasks(tasks, jobs=jobs,
                                                   cache=cache):
        points.append(
            MicroPoint(
                compute_time=compute,
                sender=OverlapReport.from_dict(sender_d),
                receiver=OverlapReport.from_dict(receiver_d),
            )
        )
    return points


# -- what the sweep CLIs share -----------------------------------------------

def add_sweep_arguments(parser: "typing.Any") -> None:
    """The arguments every sweep CLI (``tools.nas``, ``tools.paper``) takes
    for its cache, live status and span trace; :class:`CliSweep` reads them."""
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not update the on-disk result "
                        "cache")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory (default: "
                        "$REPRO_CACHE_DIR or .repro_cache)")
    parser.add_argument("--metrics-dir", default=None,
                        help="publish live sweep status (and whatever "
                        "OpenMetrics files the tool writes) here; tail with "
                        "`python -m repro.tools.watch`")
    parser.add_argument("--live", action="store_true",
                        help="render the sweep dashboard in-place on stderr "
                        "while the sweep runs")
    parser.add_argument("--trace-dir", default=None,
                        help="record host-time spans for the whole sweep "
                        "(runner, launcher) and write "
                        "one merged Perfetto trace_event JSON here; inspect "
                        "with `python -m repro.tools.explain`")


class CliSweep:
    """One CLI sweep: the cache, live progress and root span that
    :func:`add_sweep_arguments` configured, opened here, closed by
    :meth:`run`.

    ``label`` names the sweep (``nas.lu``, ``paper``): the progress label
    and the ``<label>.trace.json`` file; ``title`` and ``span_attrs``
    describe the root span.
    """

    def __init__(self, args: "typing.Any", label: str, title: str,
                 **span_attrs: object) -> None:
        self.cache = None if args.no_cache else ResultCache(args.cache_dir)
        self.progress = None
        if args.metrics_dir or args.live:
            from repro.metrics import SweepProgress

            on_update = None
            if args.live:
                from repro.tools.watch import LiveRenderer

                on_update = LiveRenderer().update
            self.progress = SweepProgress(args.metrics_dir, label=label,
                                          on_update=on_update)
        self.tracer = None
        if args.trace_dir:
            from repro.tracing import Tracer

            self.tracer = Tracer(process=f"{label.partition('.')[0]} sweep")
            self._root = self.tracer.begin(title, "runner.root", **span_attrs)
            self._trace_path = (pathlib.Path(args.trace_dir)
                                / f"{label}.trace.json")

    def run(self, tasks: "typing.Sequence[Task]", jobs: "int | None",
            on_error: str = "raise") -> list:
        """:func:`run_tasks` under this sweep's cache, progress and tracer;
        then the root span ends and the merged trace is written."""
        results = run_tasks(tasks, jobs=jobs, cache=self.cache,
                            progress=self.progress, on_error=on_error,
                            tracer=self.tracer)
        if self.tracer is not None:
            from repro.tracing import save_trace

            self._root.end()
            self._trace_path.parent.mkdir(parents=True, exist_ok=True)
            save_trace(self._trace_path, self.tracer)
            print(f"wrote span trace to {self._trace_path}")
        return results
