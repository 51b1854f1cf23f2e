"""The overlap-analysis job service: queueing, dedupe, caching, workers.

:class:`OverlapService` is the HTTP-free heart of ``repro.service`` --
the asyncio front end in :mod:`repro.service.server` is a thin adapter
over it, and the property tests drive it directly.

Life of a submission
--------------------
1. **Canonicalize** (:mod:`repro.service.jobs`): the JSON body becomes
   the exact CLI task tuples, so content-hash keys are shared with every
   CLI invocation ever cached.
2. **Cache probe**: all cells already on disk -> the job is born
   ``done`` and the submitter gets the rows in the same round trip
   (the warm path the load test holds under 10 ms p50).
3. **Single-flight dedupe**: an identical job already queued or running
   -> the new job becomes a *waiter* on that execution; one simulation
   serves every concurrent asker, across tenants.
4. **Admission control**: per-tenant and global queue budgets; over
   budget -> HTTP 429 with a ``Retry-After`` estimate.
5. **Execution**: a bounded worker-thread pool drains the queue, running
   each job's cells side by side (:attr:`OverlapService.cell_slots`)
   through :func:`repro.experiments.runner.run_tasks` in supervised
   worker processes reused between cells (``isolate=True,
   on_error="continue"``) -- a segfaulting cell fails its own job and
   costs that one worker, never the server -- with a cooperative cancel
   event behind ``DELETE /v1/jobs/{id}``.
6. **Notification**: a job's finish hooks answer its held ``?wait=`` reads.

Every execution publishes the standard ``sweep.json``/``metrics.om``
artifacts (when the service has a metrics dir), so ``repro.tools.watch``
tails a server exactly like it tails a CLI sweep.
"""

from __future__ import annotations

import collections.abc
import contextlib
import dataclasses
import itertools
import os
import pickle
import threading
import time
import typing
import zlib

from repro.experiments.runner import (
    FailedTask,
    ResultCache,
    run_tasks,
    worker_stats,
)
from repro.metrics import MetricsRegistry, SweepProgress, render_openmetrics
from repro.service.jobs import (
    Submission,
    SubmissionError,
    job_content_key,
    parse_submission,
)
from repro.service.queue import QuotaConfig, TenantQueue
from repro.tracing.span import Tracer

#: Finished jobs kept addressable (GET-able) before being forgotten.
DEFAULT_MAX_FINISHED_JOBS = 10_000

_job_ids = itertools.count(1)


def _new_job_id() -> str:
    return f"job-{next(_job_ids):08d}"


class PackedRows(collections.abc.Sequence):
    """A finished execution's result rows, one compressed pickle per row.

    A finished job stays addressable for a long time
    (:data:`DEFAULT_MAX_FINISHED_JOBS`) and is fetched once or never;
    its rows as live object graphs cost several times their serialized
    size, so they are held packed (zlib's fastest level halves a report
    row's pickle) and decoded per requested page.
    Compares equal to any sequence of the same rows.
    """

    __slots__ = ("_blobs",)

    def __init__(self, rows: "typing.Iterable[object]") -> None:
        # The copy is the point: compress() returns its output buffer
        # shrunk in place, and keeping thousands of those pins the freed
        # tails between them (measured: 2.2 -> 1.6 KiB RSS per two-row
        # job); an exact-size copy lets the buffer be reused.
        self._blobs = [
            bytes(memoryview(zlib.compress(
                pickle.dumps(row, pickle.HIGHEST_PROTOCOL), 1)))
            for row in rows]

    def __len__(self) -> int:
        return len(self._blobs)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return [pickle.loads(zlib.decompress(blob))
                    for blob in self._blobs[index]]
        return pickle.loads(zlib.decompress(self._blobs[index]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, collections.abc.Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))


class _Execution:
    """One actual run of a deduped job: the unit the queue schedules."""

    __slots__ = ("id", "key", "tenant", "priority", "label", "tasks",
                 "state", "seq", "created", "started", "finished",
                 "cancel_event", "waiters", "results", "progress_payload",
                 "tracer", "trace")

    def __init__(self, job: "Job", tasks: list) -> None:
        self.id = job.id
        self.key = job.key
        self.tenant = job.tenant
        self.priority = job.priority
        self.label = job.label
        self.tasks = tasks
        self.state = "queued"
        self.seq = 0
        self.created = time.time()
        self.started: "float | None" = None
        self.finished: "float | None" = None
        #: Dropped once finalized (an Event with its Condition: ~1.2 KiB).
        self.cancel_event: "threading.Event | None" = threading.Event()
        self.waiters: "list[Job]" = [job]
        self.results: "PackedRows | None" = None
        #: Per-execution span tracer (None when service tracing is off)
        #: and its final payload after _finalize.
        self.tracer: "Tracer | None" = None
        self.trace: "dict | None" = None
        self.progress_payload: "dict[str, object]" = {
            "label": job.label, "total": len(tasks), "done": 0, "cached": 0,
            "failed": 0, "queued": len(tasks), "finished": False,
        }


@dataclasses.dataclass
class Job:
    """One tenant-visible submission (possibly a dedupe waiter)."""

    id: str
    tenant: str
    kind: str
    priority: int
    label: str
    key: str
    created: float
    #: Answered straight from the result cache at submit time.
    cached: bool = False
    #: Attached to an execution another submission started first.
    deduped: bool = False
    #: Set by DELETE; overrides the execution-derived state.
    cancelled: bool = False
    execution: "_Execution | None" = None
    #: For cache-hit jobs: the rows themselves (executions carry their own).
    results: "list | None" = None
    finished: "float | None" = None
    #: For cache-hit jobs: their (tiny) span payload; executed jobs read
    #: the trace from their execution.
    trace: "dict | None" = None

    @property
    def state(self) -> str:
        if self.cancelled:
            return "cancelled"
        if self.cached:
            return "done"
        assert self.execution is not None
        return self.execution.state

    def rows(self) -> "typing.Sequence | None":
        if self.results is not None:
            return self.results
        if self.execution is not None:
            return self.execution.results
        return None

    def describe(self) -> "dict[str, object]":
        exc = self.execution
        rows = self.rows()
        return {
            "job_id": self.id,
            "tenant": self.tenant,
            "kind": self.kind,
            "priority": self.priority,
            "label": self.label,
            "key": self.key,
            "state": self.state,
            "cached": self.cached,
            "deduped": self.deduped,
            "created_unix": self.created,
            "started_unix": exc.started if exc is not None else self.created,
            "finished_unix": (self.finished if self.finished is not None
                              else (exc.finished if exc is not None else None)),
            "total_rows": len(rows) if rows is not None else None,
        }


def _failed_row(value: FailedTask) -> "dict[str, object]":
    return {
        "failed": True,
        "cancelled": value.cancelled,
        "name": value.name,
        "error": value.error,
        "exitcode": value.exitcode,
    }


class OverlapService:
    """Multi-tenant overlap-analysis job server (transport-agnostic)."""

    def __init__(
        self,
        cache_root: "str | os.PathLike | None" = None,
        workers: int = 2,
        quotas: "QuotaConfig | None" = None,
        metrics_dir: "str | os.PathLike | None" = None,
        cache_max_entries: "int | None" = None,
        cache_max_bytes: "int | None" = None,
        max_finished_jobs: int = DEFAULT_MAX_FINISHED_JOBS,
        label: str = "service",
        trace_dir: "str | os.PathLike | None" = None,
        trace: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.registry = MetricsRegistry()
        #: Span tracing: on when asked for explicitly or via a trace dir.
        #: Every execution then carries a Tracer from HTTP accept through
        #: the crash-isolated worker processes; merged traces are served
        #: at /v1/jobs/{id}/trace and (with trace_dir) written to disk.
        self.trace_dir = os.fspath(trace_dir) if trace_dir else None
        self.trace = bool(trace or trace_dir)
        if self.trace_dir:
            os.makedirs(self.trace_dir, exist_ok=True)
        self.cache = ResultCache(
            cache_root, max_entries=cache_max_entries,
            max_bytes=cache_max_bytes, metrics=self.registry)
        self.queue = TenantQueue(quotas)
        self.workers = workers
        affinity = getattr(os, "sched_getaffinity", None)
        cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
        #: Worker processes one job's cells may use at once: an equal share
        #: of the CPUs per job slot, so at most max(workers, CPUs) cells run.
        self.cell_slots = max(1, cpus // workers)
        self.metrics_dir = os.fspath(metrics_dir) if metrics_dir else None
        self.max_finished_jobs = max_finished_jobs
        self.started_unix = time.time()

        self.jobs: "dict[str, Job]" = {}
        self._finished_order: "collections.deque[str]" = collections.deque()
        self._by_key: "dict[str, _Execution]" = {}
        #: Executions finalized so far.  A submission snapshots it before
        #: its lock-free cache probe; a different value under the lock
        #: means ``_by_key`` may have lost the entry the probe raced with.
        self._finalized_count = 0
        self._running_counts: "dict[str, int]" = {}
        self._running: "dict[str, _Execution]" = {}
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._stop = False
        self._threads: "list[threading.Thread]" = []
        self._finish_hooks: "dict[str, set]" = {}  # job id -> finish hooks

        # Service-level progress: one "task" per submitted job, published
        # as the standard sweep.json/metrics.om pair when metrics_dir is
        # set, so `repro.tools.watch --metrics-dir` works on a server dir.
        self.progress = SweepProgress(self.metrics_dir, label=label,
                                      registry=self.registry)
        self.progress.jobs = workers
        self._submissions = {
            outcome: self.registry.counter(
                "repro_service_submissions",
                "Submissions by admission outcome",
                labels={"outcome": outcome})
            for outcome in ("cache_hit", "deduped", "queued",
                            "rejected", "invalid")
        }
        self._finished = {
            state: self.registry.counter(
                "repro_service_jobs_finished", "Jobs finished by final state",
                labels={"state": state})
            for state in ("done", "failed", "cancelled")
        }
        # Nothing re-queues a job, so this reads 0.  The family survives
        # only because the byte-frozen bench/layers.py SERVICE_COUNTERS
        # reads it (its metric_value raises KeyError without it); the
        # benchmark change of ROADMAP item 5 removes the last mention.
        self.registry.counter(
            "repro_service_retries",
            "Jobs re-queued after a failure (always 0: failures are final)")
        self._job_seconds = self.registry.histogram(
            "repro_service_job_seconds", "Host seconds per executed job")
        self.registry.sampled_gauge(
            "repro_service_queue_depth", lambda: len(self.queue),
            "Jobs waiting for a worker")
        self.registry.sampled_gauge(
            "repro_service_jobs_running", lambda: len(self._running),
            "Jobs currently executing")
        self.registry.sampled_gauge(
            "repro_service_jobs_known", lambda: len(self.jobs),
            "Jobs currently addressable over the API")
        # The runner's worker set is process-wide, and so are these: a
        # respawn storm (every job paying a fork and a cold first cell)
        # shows here as retirements keeping pace with jobs.
        self.registry.sampled_counter(
            "repro_runner_worker_spawns", lambda: worker_stats()["spawns"],
            "Runner worker processes forked (process-wide)")
        for cause in ("crash", "cancel", "raised"):
            self.registry.sampled_counter(
                "repro_runner_worker_retired",
                lambda cause=cause: worker_stats()[cause],
                "Runner worker processes retired, by what their last cell "
                "did (process-wide)", labels={"cause": cause})

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        if self._threads:
            return
        self._stop = False
        for i in range(self.workers):
            t = threading.Thread(target=self._worker_loop,
                                 name=f"repro-service-worker-{i}", daemon=True)
            t.start()
            self._threads.append(t)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the workers; running jobs are cancelled."""
        with self._cond:
            self._stop = True
            for exc in self._running.values():
                exc.cancel_event.set()
            self._cond.notify_all()
        for t in self._threads:
            t.join(timeout)
        self._threads.clear()

    # -- submission --------------------------------------------------------
    def submit(self, payload: object,
               accept_ts: "float | None" = None
               ) -> "tuple[int, dict[str, object]]":
        """Admit one submission; returns ``(http_status, response_body)``.

        200: answered from cache in this round trip.  202: queued (or
        attached to an in-flight identical execution).  400: invalid.
        429: tenant/global budget exhausted (body carries
        ``retry_after``, mirrored in the HTTP header).

        ``accept_ts`` (epoch seconds stamped when the HTTP request was
        accepted) anchors the ``service.http`` span when tracing is on.
        """
        try:
            sub, tasks = parse_submission(payload)
        except SubmissionError as exc:
            self._submissions["invalid"].inc()
            return 400, {"error": str(exc)}
        return self.submit_tasks(sub, tasks, accept_ts=accept_ts)

    def submit_tasks(self, sub: Submission, tasks: list,
                     accept_ts: "float | None" = None
                     ) -> "tuple[int, dict[str, object]]":
        """Admission for an already-canonicalized submission.

        Split from :meth:`submit` so tests can drive the queue, dedupe,
        and crash-isolation machinery with synthetic tasks.
        """
        key = job_content_key(sub.kind, tasks)

        tracer: "Tracer | None" = None
        if self.trace:
            tracer = Tracer(process="service worker", metrics=self.registry)
            if accept_ts is not None:
                tracer.add_span("http accept", "service.http", accept_ts,
                                tracer.now())
        t_submit = tracer.now() if tracer is not None else 0.0

        # Probe the cache outside the lock: pure disk reads, and the
        # common warm path must not serialize behind other submissions.
        finalized_before = self._finalized_count
        hit_rows = self._probe_cache(tasks)
        if tracer is not None:
            tracer.add_span("cache probe", "service.cache", t_submit,
                            tracer.now(),
                            {"tasks": len(tasks),
                             "hit": hit_rows is not None})

        with self._cond:
            if hit_rows is None and self._finalized_count != finalized_before:
                # Single flight: the identical job may have been running
                # when the probe missed and have finalized (left _by_key)
                # before we got here -- its rows are in the cache now.
                # Only this narrow window pays disk reads under the lock.
                hit_rows = self._probe_cache(tasks)
            if hit_rows is not None:
                job = self._make_job(sub, key, cached=True)
                job.results = hit_rows
                job.finished = time.time()
                self._submissions["cache_hit"].inc()
                self.progress.total += 1
                self.progress.task_done(0.0, cached=True, name=job.label)
                self._remember_finished(job)
                if tracer is not None:
                    tracer.add_span("submit (cache hit)", "service.submit",
                                    t_submit, tracer.now(),
                                    {"job": job.id})
                    job.trace = tracer.to_payload()
                return 200, {**job.describe(), "rows_url":
                             f"/v1/jobs/{job.id}/result"}

            existing = self._by_key.get(key)
            if existing is not None:
                job = self._make_job(sub, key, deduped=True)
                job.execution = existing
                existing.waiters.append(job)
                self._submissions["deduped"].inc()
                self.progress.total += 1
                if tracer is not None and existing.tracer is not None:
                    # The waiter's submit joins the primary's timeline.
                    tracer.add_span("submit (deduped)", "service.submit",
                                    t_submit, tracer.now(),
                                    {"job": job.id, "primary": existing.id})
                    existing.tracer.absorb(tracer.to_payload())
                return 202, {**job.describe(), "primary_job_id": existing.id}

            admission = self.queue.check(sub.tenant,
                                         retry_after=self._retry_after())
            if not admission.ok:
                self._submissions["rejected"].inc()
                return 429, {"error": admission.reason,
                             "retry_after": round(admission.retry_after, 1)}

            job = self._make_job(sub, key)
            execution = _Execution(job, tasks)
            job.execution = execution
            if tracer is not None:
                tracer.add_span("submit", "service.submit", t_submit,
                                tracer.now(), {"job": job.id,
                                               "tasks": len(tasks)})
                execution.tracer = tracer
            self.queue.push(execution)
            self._by_key[key] = execution
            self._submissions["queued"].inc()
            self.progress.total += 1
            self._cond.notify()
            return 202, job.describe()

    def _probe_cache(self, tasks: list) -> "list[object] | None":
        """Every task's cached value, or None as soon as one is missing."""
        rows: "list[object]" = []
        for task in tasks:
            found, value = self.cache.get(task.key)
            if not found:
                return None
            rows.append(value)
        return rows

    def add_finish_hook(self, job_id: str,
                        hook: "typing.Callable[[], None]") -> bool:
        """Call ``hook()`` once, under the service lock (so it must not
        block), when the job is final; False when it is unknown or final
        already.  A ``RuntimeError`` from it (its loop closed) is dropped."""
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None or job.state not in ("queued", "running"):
                return False
            self._finish_hooks.setdefault(job_id, set()).add(hook)
            return True

    def remove_finish_hook(self, job_id: str,
                           hook: "typing.Callable[[], None]") -> None:
        """Forget a hook that has not fired (no-op when it has)."""
        with self._lock:
            hooks = self._finish_hooks.get(job_id, set())
            hooks.discard(hook)
            if not hooks:
                self._finish_hooks.pop(job_id, None)

    def _job_final(self, job: Job) -> None:
        """Fire (and forget) the job's finish hooks.  (Held lock.)"""
        for hook in self._finish_hooks.pop(job.id, ()):
            with contextlib.suppress(RuntimeError):  # its loop has closed
                hook()

    def _make_job(self, sub: Submission, key: str, cached: bool = False,
                  deduped: bool = False) -> Job:
        job = Job(id=_new_job_id(), tenant=sub.tenant, kind=sub.kind,
                  priority=self.queue.clamp_priority(sub.priority),
                  label=sub.label, key=key, created=time.time(),
                  cached=cached, deduped=deduped)
        self.jobs[job.id] = job
        return job

    def _retry_after(self) -> float:
        """Back-off hint: queue drain time at the observed job rate."""
        executed = self.progress.done - self.progress.cached
        avg = (self.progress.busy_seconds / executed) if executed else 0.5
        estimate = avg * max(1, len(self.queue)) / max(1, self.workers)
        return min(60.0, max(1.0, estimate))

    def _remember_finished(self, job: Job) -> None:
        self._finished_order.append(job.id)
        while len(self._finished_order) > self.max_finished_jobs:
            old = self._finished_order.popleft()
            self.jobs.pop(old, None)

    # -- job API -----------------------------------------------------------
    def job_status(self, job_id: str) -> "tuple[int, dict[str, object]]":
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                return 404, {"error": f"no such job {job_id!r}"}
            return 200, job.describe()

    def job_result(self, job_id: str, offset: int = 0,
                   limit: "int | None" = None
                   ) -> "tuple[int, dict[str, object]]":
        """Paged result rows; 409 while the job is still queued/running."""
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                return 404, {"error": f"no such job {job_id!r}"}
            state = job.state
            rows = job.rows()
            if rows is None:
                return 409, {"job_id": job_id, "state": state,
                             "error": "result not ready"}
        # Decoding the page needs no lock: finished rows never change.
        offset = max(0, offset)
        page = rows[offset:offset + limit if limit is not None else None]
        return 200, {
            "job_id": job_id,
            "state": state,
            "total_rows": len(rows),
            "offset": offset,
            "rows": page,
        }

    def job_trace(self, job_id: str) -> "tuple[int, dict[str, object]]":
        """The job's merged Perfetto trace; 409 until it has finished."""
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                return 404, {"error": f"no such job {job_id!r}"}
            if not self.trace:
                return 404, {"error": "tracing is disabled on this server "
                                      "(start it with --trace-dir or "
                                      "trace=True)"}
            payload = job.trace
            if payload is None and job.execution is not None:
                payload = job.execution.trace
            if payload is None:
                return 409, {"job_id": job_id, "state": job.state,
                             "error": "trace not ready"}
        from repro.tracing.merge import build_trace

        return 200, build_trace(payload)

    def cancel(self, job_id: str) -> "tuple[int, dict[str, object]]":
        """Cancel one job.  A dedupe waiter detaches without disturbing
        the shared execution; the *last* waiter to leave cancels it (a
        queued execution is dequeued, a running one has its workers
        terminated and joined via the runner's cancel event)."""
        with self._cond:
            job = self.jobs.get(job_id)
            if job is None:
                return 404, {"error": f"no such job {job_id!r}"}
            if job.state in ("done", "failed", "cancelled"):
                return 409, {"job_id": job_id, "state": job.state,
                             "error": "job already finished"}
            job.cancelled = True
            job.finished = time.time()
            self.progress.task_done(0.0, name=job.label, failed=True)
            self._finished["cancelled"].inc()
            self._remember_finished(job)
            self._job_final(job)
            execution = job.execution
            assert execution is not None
            if job in execution.waiters:
                execution.waiters.remove(job)
            if not execution.waiters:
                if execution.state == "queued":
                    self.queue.remove(execution.id)
                    execution.state = "cancelled"
                    execution.finished = time.time()
                    if self._by_key.get(execution.key) is execution:
                        del self._by_key[execution.key]
                elif execution.state == "running":
                    execution.cancel_event.set()
            return 200, job.describe()

    def list_jobs(self, tenant: "str | None" = None
                  ) -> "tuple[int, dict[str, object]]":
        with self._lock:
            jobs = [j.describe() for j in self.jobs.values()
                    if tenant is None or j.tenant == tenant]
            return 200, {"jobs": jobs, "count": len(jobs)}

    # -- observability -----------------------------------------------------
    def progress_payload(self, job_id: "str | None" = None
                         ) -> "tuple[int, dict[str, object]]":
        """The sweep.json-schema payload, service-level or per-job."""
        with self._lock:
            if job_id is None:
                payload = self.progress.status()
                stages = self._stage_latency()
                if stages:
                    payload["stages"] = stages
                return 200, payload
            job = self.jobs.get(job_id)
            if job is None:
                return 404, {"error": f"no such job {job_id!r}"}
            if job.execution is not None:
                payload = dict(job.execution.progress_payload)
            else:  # cache-hit job: born finished
                payload = {"label": job.label, "total": 1, "done": 1,
                           "cached": 1, "failed": 0, "queued": 0,
                           "finished": True}
            payload["state"] = job.state
            return 200, payload

    def _stage_latency(self) -> "dict[str, dict[str, float]]":
        """Per-category span stats from the tracer-fed histograms.

        What ``repro.tools.watch`` renders as live per-stage latency:
        ``{category: {count, avg_ms, total_s}}``.  Empty when tracing is
        off (the families are then never registered).
        """
        stages: "dict[str, dict[str, float]]" = {}
        for fam in self.registry.collect():
            if fam.name != "repro_trace_span_seconds":
                continue
            for labels, value in fam.samples:
                hist = typing.cast(typing.Any, value)
                if not getattr(hist, "count", 0):
                    continue
                category = dict(labels).get("category", "")
                stages[category] = {
                    "count": hist.count,
                    "avg_ms": round(1e3 * hist.sum / hist.count, 3),
                    "total_s": round(hist.sum, 6),
                }
        return stages

    def metrics_text(self) -> str:
        return render_openmetrics(self.registry)

    def healthz(self) -> "dict[str, object]":
        with self._lock:
            states: "dict[str, int]" = {}
            for job in self.jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "ok": True,
                "uptime_s": round(time.time() - self.started_unix, 1),
                "workers": self.workers,
                "queue_depth": len(self.queue),
                "running": len(self._running),
                "jobs": states,
                "cache": self.cache.describe(),
            }

    # -- the worker pool ---------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                execution = None
                while not self._stop:
                    execution = self.queue.pop_next(self._running_counts)
                    if execution is not None:
                        break
                    self._cond.wait(0.2)
                if self._stop or execution is None:
                    return
                execution.state = "running"
                execution.started = time.time()
                self._running_counts[execution.tenant] = (
                    self._running_counts.get(execution.tenant, 0) + 1)
                self._running[execution.id] = execution

            progress = self._execution_progress(execution)
            tracer = execution.tracer
            if tracer is not None:
                tracer.add_span("queue wait", "service.queue",
                                execution.created, tracer.now(),
                                {"job": execution.id})
            sp = (tracer.begin("execute", "service.execute",
                              job=execution.id, tasks=len(execution.tasks))
                  if tracer is not None else None)
            t0 = time.perf_counter()
            try:
                values = run_tasks(
                    execution.tasks, jobs=self.cell_slots, cache=self.cache,
                    on_error="continue", isolate=True,
                    cancel=execution.cancel_event, progress=progress,
                    tracer=tracer,
                )
            except Exception as exc:  # defensive: never kill a worker
                values = [FailedTask(execution.label,
                                     f"{type(exc).__name__}: {exc}")
                          for _ in execution.tasks]
            duration = time.perf_counter() - t0
            if sp is not None:
                sp.end()

            with self._cond:
                self._running_counts[execution.tenant] -= 1
                del self._running[execution.id]
                self._finalize(execution, values, duration)
                self._cond.notify_all()

    def _execution_progress(self, execution: _Execution) -> SweepProgress:
        metrics_dir = (os.path.join(self.metrics_dir, execution.id)
                       if self.metrics_dir else None)

        def on_update(payload: "dict[str, object]") -> None:
            execution.progress_payload = payload

        return SweepProgress(metrics_dir, label=execution.label,
                             on_update=on_update, min_write_interval=0.05)

    def _finalize(self, execution: _Execution, values: list,
                  duration: float) -> None:
        execution.results = PackedRows(
            _failed_row(v) if isinstance(v, FailedTask) else v
            for v in values)
        # The job stays addressable long after this; its task tuples
        # (config dataclasses and all) are of no further use.
        execution.tasks = []
        cancelled = execution.cancel_event.is_set()
        execution.cancel_event = None
        hard_failures = any(
            isinstance(v, FailedTask) and not v.cancelled for v in values)
        if cancelled and not execution.waiters:
            execution.state = "cancelled"
        elif hard_failures or (cancelled and execution.waiters):
            execution.state = "failed"
        else:
            execution.state = "done"
        execution.finished = time.time()
        if self._by_key.get(execution.key) is execution:
            del self._by_key[execution.key]
        self._finalized_count += 1
        if execution.tracer is not None:
            execution.trace = execution.tracer.to_payload()
            execution.tracer = None
            if self.trace_dir:
                from repro.tracing.merge import save_trace

                try:
                    save_trace(os.path.join(self.trace_dir,
                                            f"{execution.id}.trace.json"),
                               execution.trace)
                except OSError:  # tracing must never fail a job
                    pass
        self._job_seconds.observe(duration)
        # Per-job accounting on the service-level dashboard: the first
        # waiter carries the execution's cost, the rest were deduped.
        for n, job in enumerate(execution.waiters):
            job.finished = execution.finished
            self._finished[execution.state].inc()
            if execution.state == "done":
                self.progress.task_done(duration if n == 0 else 0.0,
                                        cached=n > 0, name=job.label)
            else:
                self.progress.task_done(duration if n == 0 else 0.0,
                                        name=job.label, failed=True)
            self._remember_finished(job)
            self._job_final(job)
