"""Parallel, cached execution of independent experiment sweeps.

Every figure in the paper's evaluation is a sweep over independent points
(inserted-computation values, message sizes, process counts).  Each point
is a pure function of its configuration -- the simulator is deterministic
-- so two orthogonal speedups apply:

* **fan-out**: independent points run concurrently on a
  :mod:`multiprocessing` pool, with results returned in task order so a
  parallel sweep is indistinguishable from a serial one;
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
import json
import multiprocessing
import multiprocessing.connection
import os
import pickle
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
# Persistent worker pool, shared across run_tasks / overlap_sweep_parallel
# calls within one process.  A CLI invocation typically renders several
# figures back to back, each a sweep of its own; spinning a fresh pool per
# sweep pays process fork + interpreter/import startup every time, which
# for cached-or-small sweeps dominates the sweep itself (see
# ``benchmarks/test_sweep_startup.py``).  The pool is keyed by its worker
# count: asking for a different ``jobs`` value retires the old pool.
_shared_pool: "multiprocessing.pool.Pool | None" = None
_shared_pool_procs = 0
#: Pools ever constructed by :func:`_get_shared_pool` (startup-overhead
#: observability; the paired benchmark asserts reuse through this).
pool_spawns = 0


def _get_shared_pool(processes: int) -> "multiprocessing.pool.Pool":
    """Return the process-wide pool, (re)building it if the size changed."""
    global _shared_pool, _shared_pool_procs, pool_spawns
    if _shared_pool is not None and _shared_pool_procs == processes:
        return _shared_pool
    shutdown_shared_pool()
    _shared_pool = multiprocessing.get_context().Pool(processes=processes)
    _shared_pool_procs = processes
    pool_spawns += 1
    return _shared_pool


def shutdown_shared_pool() -> None:
    """Terminate the shared worker pool (no-op when none is alive).

    Registered via :mod:`atexit`; call it explicitly to reclaim the
    workers early (e.g. at the end of a long-lived service's sweep phase)
    or after a worker-side crash left the pool in a doubtful state.
    """
    global _shared_pool, _shared_pool_procs
    pool = _shared_pool
    _shared_pool = None
    _shared_pool_procs = 0
    if pool is not None:
        pool.terminate()
        pool.join()


atexit.register(shutdown_shared_pool)


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
    #: True when the failing exception advertised ``retryable = True``
    #: (e.g. :class:`repro.sim.parallel.ShardHostLost`): the cell failed
    #: for an environmental reason -- a lost worker host, not a bug in
    #: the task -- so re-running the identical task can succeed.  The
    #: service re-queues a job once when any of its cells says so.
    retryable: bool = False

    def __bool__(self) -> bool:
        # A failed cell is falsy so sweep code can filter results with a
        # plain truthiness check.
        return False


class SweepCancelled(RuntimeError):
    """Raised by :func:`run_tasks` under ``on_error="raise"`` when the
    ``cancel`` event fires mid-sweep."""


def _cancelled_cell(task: Task) -> FailedTask:
    return FailedTask(_task_name(task), "cancelled", cancelled=True)


def _run_task_timed(task: Task) -> "tuple[float, object]":
    """Worker-side entry point that also reports the task's host seconds."""
    t0 = time.perf_counter()
    value = task.run()
    return time.perf_counter() - t0, value


def _task_name(task: Task) -> str:
    fn = getattr(task.fn, "__name__", str(task.fn)).lstrip("_")
    return f"{fn}{task.args[:2]!r}" if task.args else fn


def _run_task_failsafe(task: Task) -> "tuple[float, object]":
    """Run one task, converting any exception into a :class:`FailedTask`."""
    t0 = time.perf_counter()
    try:
        value: object = task.run()
    except Exception as exc:
        value = FailedTask(
            _task_name(task),
            f"{type(exc).__name__}: {exc}",
            traceback.format_exc(),
            retryable=bool(getattr(exc, "retryable", False)),
        )
    return time.perf_counter() - t0, value


def _run_task_traced(item: "tuple[typing.Callable, Task, dict]"
                     ) -> "tuple[float, object, dict]":
    """Worker-process entry point joining the parent's trace.

    ``item`` is ``(run_one, task, trace_wire)`` -- one argument, so a
    pool can map it -- with ``run_one`` one of the timed entry points
    above and ``trace_wire`` a :meth:`Tracer.child_wire` dict.  The
    worker adopts the wire, installs the tracer ambiently (so
    ``run_app`` deep inside the cell can pick it up without a signature
    change -- task argument tuples are content-hash cache keys), records
    a ``runner.task`` span around the cell, and returns its span payload
    as a third tuple element.
    """
    run_one, task, trace_wire = item
    tracer = Tracer.adopt(trace_wire)
    with use_tracer(tracer):
        with tracer.span(f"task {_task_name(task)}", "runner.task"):
            dur, value = run_one(task)
    return dur, value, tracer.to_payload()


def _run_task_piped(task: Task, conn, trace_wire: "dict | None" = None) -> None:
    """Child-process entry point: run one task, ship the result home."""
    if trace_wire is None:
        msg: tuple = _run_task_failsafe(task)
    else:
        msg = _run_task_traced((_run_task_failsafe, task, trace_wire))
    try:
        conn.send(msg)
    except Exception as exc:  # e.g. an unpicklable result
        conn.send((msg[0], FailedTask(
            _task_name(task), f"result not picklable: {exc}")))
    finally:
        conn.close()


def _progress_done(progress: "SweepProgress | None", dur: float,
                   task: Task, value: object) -> None:
    if progress is None:
        return
    if isinstance(value, FailedTask):
        progress.task_done(dur, name=_task_name(task), failed=True)
    else:
        progress.task_done(dur, name=_task_name(task))


def _run_pending_resilient(
    tasks: "list[Task]",
    pending: "list[int]",
    jobs: int,
    progress: "SweepProgress | None",
    cancel: "typing.Any | None" = None,
    tracer: "Tracer | None" = None,
) -> "list[tuple[float, object]]":
    """Fan tasks across one process *each* (at most ``jobs`` at a time).

    Unlike a shared :class:`multiprocessing.pool.Pool`, a worker that dies
    outright -- segfault, OOM kill, ``os._exit`` -- takes only its own
    cell with it: the broken pipe surfaces as an ``EOFError`` on the
    parent's end and the cell becomes a :class:`FailedTask` carrying the
    exit code, while every other point proceeds.  Results are slotted
    positionally, so ordering stays deterministic.

    ``cancel`` (any object with ``is_set()``) is polled between launches
    and while draining: once set, no new worker starts, every in-flight
    worker is terminated *and joined*, and the untouched cells resolve to
    cancelled :class:`FailedTask` placeholders.
    """
    ctx = multiprocessing.get_context()
    timed: "list[tuple[float, object] | None]" = [None] * len(pending)
    inflight: dict = {}  # parent conn -> (slot, task index, process, start)
    next_slot = 0

    def _is_cancelled() -> bool:
        return cancel is not None and cancel.is_set()

    try:
        while next_slot < len(pending) or inflight:
            if _is_cancelled():
                # Kill in-flight workers (terminate + join: no orphans,
                # no zombies) and mark every unfinished cell cancelled.
                for conn, (slot, i, proc, t0) in inflight.items():
                    proc.terminate()
                    proc.join()
                    conn.close()
                    timed[slot] = (time.perf_counter() - t0,
                                   _cancelled_cell(tasks[i]))
                    _progress_done(progress, timed[slot][0], tasks[i],
                                   timed[slot][1])
                inflight.clear()
                for slot in range(next_slot, len(pending)):
                    i = pending[slot]
                    timed[slot] = (0.0, _cancelled_cell(tasks[i]))
                    _progress_done(progress, 0.0, tasks[i], timed[slot][1])
                next_slot = len(pending)
                break
            while next_slot < len(pending) and len(inflight) < jobs:
                i = pending[next_slot]
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                # Non-daemonic: a cell may itself fork (the sharded
                # parallel-DES engine runs one process per shard), which
                # daemonic processes are forbidden to do.  The ``finally``
                # below terminates + joins whatever is still in flight, so
                # no path leaks a child.
                wire = (tracer.child_wire(f"cell {_task_name(tasks[i])}")
                        if tracer is not None else None)
                proc = ctx.Process(
                    target=_run_task_piped,
                    args=(tasks[i], child_conn, wire),
                )
                proc.start()
                child_conn.close()
                inflight[parent_conn] = (next_slot, i, proc, time.perf_counter())
                next_slot += 1
            # Poll with a timeout when cancellable so a cancel fired
            # mid-cell is noticed promptly, not at the next completion.
            ready = multiprocessing.connection.wait(
                list(inflight), timeout=0.05 if cancel is not None else None
            )
            for conn in ready:
                slot, i, proc, t0 = inflight.pop(conn)
                try:
                    msg = conn.recv()
                    dur, value = msg[0], msg[1]
                    if tracer is not None and len(msg) > 2:
                        tracer.absorb(msg[2])
                except EOFError:
                    # The worker died before reporting.
                    proc.join()
                    dur = time.perf_counter() - t0
                    value = FailedTask(
                        _task_name(tasks[i]),
                        f"worker died without a result (exitcode {proc.exitcode})",
                        exitcode=proc.exitcode,
                    )
                else:
                    proc.join()
                conn.close()
                timed[slot] = (dur, value)
                _progress_done(progress, dur, tasks[i], value)
    finally:
        for conn, (_slot, _i, proc, _t0) in inflight.items():
            proc.terminate()
            # Always join after terminate -- an exception path that skips
            # the join leaks zombie children for the parent's lifetime.
            proc.join()
            conn.close()
    return typing.cast("list[tuple[float, object]]", timed)


def run_tasks(
    tasks: typing.Sequence[Task],
    jobs: "int | None" = None,
    cache: "ResultCache | None" = None,
    progress: "SweepProgress | None" = None,
    reuse_pool: bool = True,
    on_error: str = "raise",
    cancel: "typing.Any | None" = None,
    isolate: bool = False,
    tracer: "Tracer | None" = None,
) -> list[object]:
    """Run ``tasks`` and return their results **in task order**.

    ``jobs`` counts worker processes: ``None`` or ``1`` runs serially in
    this process (no pool, no pickling); ``jobs > 1`` fans uncached tasks
    across a pool.  ``cache`` (optional) is consulted before any work and
    updated after; only cache misses are executed.  ``progress``
    (optional :class:`~repro.metrics.SweepProgress`) receives one
    ``task_done`` per task -- cache hits immediately, executed tasks with
    their measured duration as results stream back -- and is
    ``finish()``-ed before returning.

    ``reuse_pool`` (default on) keeps the worker pool alive between calls
    (same ``jobs`` value -> same pool), so a CLI invocation that renders
    several sweeps pays process startup once; pass ``False`` to get a
    private pool torn down on return.  A task that raises retires the
    shared pool (the surviving workers' state is no longer trusted)
    before the exception propagates.

    ``on_error`` selects the failure policy.  ``"raise"`` (the default)
    propagates the first failing task's exception, retiring the shared
    pool.  ``"continue"`` hardens the sweep against bad cells: a task
    that raises -- or whose worker process dies outright -- leaves a
    :class:`FailedTask` in its result slot and every other point still
    runs.  Failed cells are never cached.  With ``jobs > 1`` the
    continue policy runs each uncached task in its own short-lived
    process (crash isolation costs the pool reuse).

    ``cancel`` (optional; anything with ``is_set()``, e.g. a
    :class:`threading.Event`) makes the sweep cooperatively cancellable:
    it is checked between tasks, and in the crash-isolated path in-flight
    worker processes are terminated and joined.  Under
    ``on_error="continue"`` cancelled cells resolve to
    :class:`FailedTask` placeholders with ``cancelled=True``; under
    ``on_error="raise"`` a fired cancel raises :class:`SweepCancelled`.

    ``isolate=True`` (requires ``on_error="continue"``) forces the
    one-process-per-task crash-isolated path even for a single task or
    ``jobs=1`` -- this is how the analysis service keeps a crashing job
    from taking the server down, and what makes its ``DELETE`` endpoint
    able to kill a running job without orphaning processes.

    Determinism: results are positionally identical to a serial run
    regardless of ``jobs``, cache state, pool reuse, or progress
    publication, because every task is an independent pure function and
    the pool uses ordered ``imap``.

    ``tracer`` (optional :class:`~repro.tracing.Tracer`) records a
    ``runner.cache`` span for the cache probe and one ``runner.task``
    span per executed task; worker processes join the trace via a wire
    context over the result pipe and their span payloads are absorbed,
    so the merged timeline shows every cell on its own track.  Results
    are bit-identical with and without a tracer.
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

    if progress is not None:
        progress.start(len(tasks), jobs or 1)

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

    if not pending:
        if progress is not None:
            progress.finish()
        return results

    if jobs is None:
        jobs = 1
    if isolate:
        timed = _run_pending_resilient(
            tasks, pending, max(1, min(jobs, len(pending))), progress, cancel,
            tracer,
        )
    elif jobs <= 1 or len(pending) == 1:
        run_one = _run_task_failsafe if on_error == "continue" else _run_task_timed
        timed = []
        for n, i in enumerate(pending):
            if cancel is not None and cancel.is_set():
                if on_error == "raise":
                    raise SweepCancelled(
                        f"sweep cancelled after {n} of {len(pending)} "
                        "pending tasks"
                    )
                for j in pending[n:]:
                    value = _cancelled_cell(tasks[j])
                    _progress_done(progress, 0.0, tasks[j], value)
                    timed.append((0.0, value))
                break
            if tracer is not None:
                with tracer.span(f"task {_task_name(tasks[i])}",
                                 "runner.task"):
                    with use_tracer(tracer):
                        dur, value = run_one(tasks[i])
            else:
                dur, value = run_one(tasks[i])
            _progress_done(progress, dur, tasks[i], value)
            timed.append((dur, value))
    elif on_error == "continue":
        timed = _run_pending_resilient(
            tasks, pending, min(jobs, len(pending)), progress, cancel, tracer
        )
    else:
        def _pool_imap(pool):
            if tracer is None:
                return pool.imap(_run_task_timed,
                                 [tasks[i] for i in pending], chunksize=1)
            return pool.imap(
                _run_task_traced,
                [(_run_task_timed, tasks[i],
                  tracer.child_wire(f"cell {_task_name(tasks[i])}"))
                 for i in pending], chunksize=1)

        def _drain(pool) -> "list[tuple[float, object]]":
            out: "list[tuple[float, object]]" = []
            for i, item in zip(pending, _pool_imap(pool)):
                if cancel is not None and cancel.is_set():
                    raise SweepCancelled(
                        f"sweep cancelled after {len(out)} of "
                        f"{len(pending)} pending tasks"
                    )
                dur, value = item[0], item[1]
                if tracer is not None and len(item) > 2:
                    tracer.absorb(item[2])
                if progress is not None:
                    progress.task_done(dur, name=_task_name(tasks[i]))
                out.append((dur, value))
            return out

        if reuse_pool:
            pool = _get_shared_pool(jobs)
            try:
                timed = _drain(pool)
            except BaseException:
                shutdown_shared_pool()
                raise
        else:
            ctx = multiprocessing.get_context()
            with ctx.Pool(processes=min(jobs, len(pending))) as pool:
                timed = _drain(pool)

    for i, (_dur, value) in zip(pending, timed):
        results[i] = value
        if cache is not None and not isinstance(value, FailedTask):
            key = keys[i]
            assert key is not None
            cache.put(key, value)
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
    reuse_pool: bool = True,
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
    for compute, sender_d, receiver_d in run_tasks(
        tasks, jobs=jobs, cache=cache, reuse_pool=reuse_pool
    ):
        points.append(
            MicroPoint(
                compute_time=compute,
                sender=OverlapReport.from_dict(sender_d),
                receiver=OverlapReport.from_dict(receiver_d),
            )
        )
    return points
