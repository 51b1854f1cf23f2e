"""End-to-end tests for the overlap-analysis job service.

Everything here talks to a *real* asyncio HTTP server on a loopback
port (no mocked transport): submissions, polling, paged and streamed
results, cancellation, quotas, metrics, and the differential guarantee
that a job submitted over HTTP returns reports byte-identical to the
same configuration run through the CLI worker.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.service import (
    OverlapService,
    QuotaConfig,
    ServiceClient,
    ServerThread,
)
from repro.tools import watch

#: The tiny LU cell used throughout: one simulation, two ranks.
LU_SPEC = {"tenant": "t1", "kind": "nas", "benchmark": "lu",
           "klass": "S", "np": 2, "niter": 1}


@pytest.fixture()
def server(tmp_path):
    service = OverlapService(cache_root=tmp_path / "cache", workers=2,
                             metrics_dir=tmp_path / "metrics")
    with ServerThread(service) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ServiceClient(server.url) as c:
        yield c


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# Basic lifecycle over HTTP
# ---------------------------------------------------------------------------
def test_healthz_and_unknown_routes(client):
    health = client.healthz()
    assert health.status == 200
    assert health.body["ok"] is True
    assert health.body["workers"] == 2
    assert client.request("GET", "/nope").status == 404
    assert client.request("PUT", "/v1/jobs").status == 405
    assert client.request("GET", "/v1/jobs/job-99999999").status == 404


def test_submit_poll_result_and_warm_resubmit(client):
    sub = client.submit(LU_SPEC)
    assert sub.status == 202
    assert sub.body["state"] in ("queued", "running")
    job_id = sub.body["job_id"]

    final = client.wait(job_id, timeout=120.0)
    assert final.body["state"] == "done"
    assert final.body["cached"] is False

    result = client.result(job_id)
    assert result.status == 200
    assert result.body["total_rows"] == 1
    rows = result.body["rows"]
    assert rows[0]["label"] == "lu.S.2"
    assert len(rows[0]["reports"]) == 2  # one per rank

    # Identical resubmission: answered from cache in the same round trip.
    warm = client.submit(LU_SPEC)
    assert warm.status == 200
    assert warm.body["state"] == "done"
    assert warm.body["cached"] is True
    warm_rows = client.result(warm.body["job_id"]).body["rows"]
    assert _canon(warm_rows) == _canon(rows)

    # Another tenant asking the same question also hits the cache.
    other = client.submit({**LU_SPEC, "tenant": "someone-else"})
    assert other.status == 200 and other.body["cached"] is True


def test_result_paging_and_streaming(client):
    spec = {**LU_SPEC, "np": [2, 4]}
    sub, final = client.submit_and_wait(spec, timeout=120.0)
    assert final.body["state"] == "done"
    job_id = final.body["job_id"]

    full = client.result(job_id)
    assert full.body["total_rows"] == 2
    page0 = client.result(job_id, offset=0, limit=1)
    page1 = client.result(job_id, offset=1, limit=1)
    assert page0.body["rows"][0] == full.body["rows"][0]
    assert page1.body["rows"][0] == full.body["rows"][1]
    assert page1.body["offset"] == 1

    streamed = client.stream_result(job_id)
    assert streamed[0]["total_rows"] == 2
    assert _canon(streamed[1:]) == _canon(full.body["rows"])


def test_result_before_completion_is_409(tmp_path):
    # No workers started: the job stays queued forever.
    service = OverlapService(cache_root=tmp_path / "c", workers=1)
    status, body = service.submit(LU_SPEC)
    assert status == 202
    code, payload = service.job_result(body["job_id"])
    assert code == 409
    assert payload["state"] == "queued"


def test_invalid_submissions_are_400(client):
    for bad in (
        {"kind": "nope"},
        {"kind": "nas", "benchmark": "nope"},
        {"kind": "nas", "benchmark": "lu", "np": 0},
        {"kind": "nas", "benchmark": "lu", "faults": "garbage=42"},
        {"kind": "nas", "benchmark": "mg", "shards": 2},
        {"kind": "nas", "benchmark": "lu", "faults": "drop=0.1", "shards": 2},
        {"kind": "micro", "pattern": "sendrecv"},
        [1, 2, 3],
    ):
        resp = client.submit(bad)
        assert resp.status == 400, bad
        assert "error" in resp.body


def test_shards_refusal_is_one_message_everywhere(client, capsys):
    """Service (400), ``nas`` CLI (``parser.error``) and the direct call
    refuse the same jobs with the same text, the launcher's."""
    from repro.armci import ArmciConfig
    from repro.faults import arm_faults
    from repro.mpisim.config import mvapich2_like
    from repro.nas.mg import mg_app
    from repro.runtime.launcher import run_app, shards_refusal
    from repro.tools import nas as nas_cli

    def cli_error(*argv):
        with pytest.raises(SystemExit) as exit_info:
            nas_cli.main(["--klass", "S", "--shards", "2", *argv])
        assert exit_info.value.code == 2
        return capsys.readouterr().err

    mg = shards_refusal(ArmciConfig())
    assert "region directory" in mg
    with pytest.raises(ValueError) as direct:
        run_app(mg_app, 4, ArmciConfig(), app_args=("S", 1, None, True),
                shards=2)
    assert str(direct.value) == mg
    resp = client.submit({"kind": "nas", "benchmark": "mg", "shards": 2})
    assert (resp.status, resp.body["error"]) == (400, mg)
    assert mg in cli_error("--benchmark", "mg")

    _, config, watchdog = arm_faults("drop=0.1", 0, mvapich2_like())
    faulted = shards_refusal(config, watchdog=watchdog)
    assert "watchdog" in faulted and faulted != mg
    resp = client.submit({"kind": "nas", "benchmark": "lu", "shards": 2,
                          "faults": "drop=0.1"})
    assert (resp.status, resp.body["error"]) == (400, faulted)
    assert faulted in cli_error("--benchmark", "lu", "--faults", "drop=0.1")
    assert shards_refusal(mvapich2_like(), watchdog=None) is None


def test_quota_exhaustion_returns_429_with_retry_after(tmp_path):
    service = OverlapService(
        cache_root=tmp_path / "c", workers=1,
        quotas=QuotaConfig(max_queued_per_tenant=0))
    with ServerThread(service) as srv, ServiceClient(srv.url) as c:
        resp = c.submit(LU_SPEC)
        assert resp.status == 429
        assert "retry_after" in resp.body
        retry_after = resp.headers.get("Retry-After")
        assert retry_after is not None and int(retry_after) >= 1


def test_cancel_queued_job(tmp_path):
    # Single worker; keep it busy so the second job is reliably queued.
    service = OverlapService(cache_root=tmp_path / "c", workers=1)
    with ServerThread(service) as srv, ServiceClient(srv.url) as c:
        first = c.submit(LU_SPEC)
        assert first.status == 202
        second = c.submit({**LU_SPEC, "np": 4})  # distinct -> own execution
        assert second.status == 202
        cancelled = c.cancel(second.body["job_id"])
        assert cancelled.status == 200
        assert cancelled.body["state"] == "cancelled"
        # Result of a cancelled job is whatever was recorded: not ready.
        code = c.result(second.body["job_id"]).status
        assert code in (200, 409)
        # The first job is unaffected.
        assert c.wait(first.body["job_id"], timeout=120.0).body["state"] == "done"
        # Cancelling a finished job is a conflict.
        assert c.cancel(first.body["job_id"]).status == 409


def test_single_flight_dedupe_over_http(tmp_path):
    from repro.experiments.runner import Task
    from repro.service.jobs import Submission

    service = OverlapService(cache_root=tmp_path / "c", workers=1)
    with ServerThread(service) as srv, ServiceClient(srv.url) as c:
        # Park the only worker on a synthetic blocker so the two HTTP
        # submissions below deterministically meet in the queue.
        blocker = Submission(tenant="blk", kind="nas", priority=0,
                             label="blocker", spec={})
        service.submit_tasks(blocker, [Task(_sleep_worker, (0.8,))])

        spec = {**LU_SPEC, "klass": "S", "np": 4, "niter": 2}
        first = c.submit(spec)
        assert first.status == 202
        twin = c.submit({**spec, "tenant": "tenant-b"})
        assert twin.status == 202
        assert twin.body["deduped"] is True
        assert twin.body["primary_job_id"] == first.body["job_id"]

        a = c.wait(first.body["job_id"], timeout=120.0)
        b = c.wait(twin.body["job_id"], timeout=120.0)
        assert a.body["state"] == b.body["state"] == "done"
        rows_a = c.result(first.body["job_id"]).body["rows"]
        rows_b = c.result(twin.body["job_id"]).body["rows"]
        assert _canon(rows_a) == _canon(rows_b)
        # One execution, two answers: the service-side row objects are
        # literally shared.
        job_a = service.jobs[first.body["job_id"]]
        job_b = service.jobs[twin.body["job_id"]]
        assert job_a.rows() is job_b.rows()


def test_single_flight_holds_when_the_twin_finalizes_during_the_probe(tmp_path):
    """Exactly one execution per content hash, also in this interleaving:
    submission B probes the cache (a miss -- nobody ran the job yet) and,
    before it takes the service lock, the identical submission A is
    admitted, executed and finalized.  ``_by_key`` no longer holds A, so B
    must find A's rows in the cache rather than queue a second run."""
    import threading

    from repro.experiments.runner import Task
    from repro.service.jobs import Submission

    service = OverlapService(cache_root=tmp_path / "c", workers=1)
    service.start()
    try:
        tasks = [Task(_ok_worker, (21,))]

        def submission(tenant):
            return Submission(tenant=tenant, kind="nas", priority=0,
                              label="twin", spec={})

        prober = threading.current_thread()
        real_get = service.cache.get
        raced = []

        def racing_get(key):
            if threading.current_thread() is not prober or raced:
                return real_get(key)
            raced.append(key)
            missed = real_get(key)  # B's probe reads the disk first...
            assert missed == (False, None)
            # ...and A runs to completion before that read "returns".
            _status, body = service.submit_tasks(submission("a"), tasks)
            assert _wait_finished(service, body["job_id"]) == "done"
            return missed

        service.cache.get = racing_get
        status, body = service.submit_tasks(submission("b"), tasks)
        assert raced, "the probe never reached the cache"
        assert status == 200 and body["cached"] is True
        assert service.jobs[body["job_id"]].rows() == [42]
        counts = {k: c.value for k, c in service._submissions.items()}
        assert counts["queued"] == 1 and counts["cache_hit"] == 1
    finally:
        service.shutdown()


def test_progress_endpoints_and_watch_url(server, client):
    sub, final = client.submit_and_wait(LU_SPEC, timeout=120.0)
    job_id = final.body["job_id"]

    service_progress = client.progress()
    assert service_progress.status == 200
    assert service_progress.body["done"] >= 1

    job_progress = client.progress(job_id)
    assert job_progress.status == 200
    assert job_progress.body["state"] == "done"

    # The dashboard is just another client of those endpoints.
    assert watch.main(["--once", "--url", server.url]) == 0
    assert watch.main(
        ["--once", "--url", f"{server.url}/v1/jobs/{job_id}/progress"]) == 0
    # And the on-disk artifacts double as a watchable metrics dir.
    assert watch.main(
        ["--once", "--metrics-dir",
         f"{server.service.metrics_dir}/{job_id}"]) == 0


def test_metrics_endpoint_exposes_service_counters(client):
    client.submit_and_wait(LU_SPEC, timeout=120.0)
    client.submit(LU_SPEC)  # warm hit
    text = client.metrics_text()
    assert 'repro_service_submissions_total{outcome="queued"} 1' in text
    assert 'repro_service_submissions_total{outcome="cache_hit"} 1' in text
    assert "repro_cache_lookups" in text
    assert "repro_service_job_seconds" in text


def test_job_listing_filters_by_tenant(client):
    client.submit_and_wait(LU_SPEC, timeout=120.0)
    client.submit({**LU_SPEC, "tenant": "zz-other"})
    all_jobs = client.request("GET", "/v1/jobs")
    assert all_jobs.body["count"] == 2
    mine = client.request("GET", "/v1/jobs?tenant=zz-other")
    assert mine.body["count"] == 1
    assert mine.body["jobs"][0]["tenant"] == "zz-other"


# ---------------------------------------------------------------------------
# The differential guarantee: HTTP result == CLI result, byte for byte
# ---------------------------------------------------------------------------
def _direct_cell(**overrides):
    """Run the CLI worker in-process with the CLI's exact defaults."""
    from repro.tools.nas import _run_cell

    args = dict(benchmark="lu", klass="S", nprocs=2, niter=1,
                library="paper", modified=False, nonblocking=False,
                emit_metrics=False, faults=None, fault_seed=0,
                shards=None)
    args.update(overrides)
    return _run_cell(*args.values())


@pytest.mark.parametrize("spec,overrides", [
    # Plain cell.
    ({"kind": "nas", "benchmark": "lu", "klass": "S", "np": 2, "niter": 1},
     {}),
    # With a fault plan (seeded: deterministic).
    ({"kind": "nas", "benchmark": "lu", "klass": "S", "np": 2, "niter": 1,
      "faults": "drop=0.05,dup=0.02", "fault_seed": 5, "library": "openmpi"},
     {"faults": "drop=0.05,dup=0.02", "fault_seed": 5, "library": "openmpi"}),
    # On the sharded parallel-DES engine.
    ({"kind": "nas", "benchmark": "lu", "klass": "S", "np": 4, "niter": 1,
      "shards": 2},
     {"nprocs": 4, "shards": 2}),
])
def test_http_result_byte_identical_to_cli(client, spec, overrides):
    expected = _direct_cell(**overrides)
    sub, final = client.submit_and_wait({"tenant": "diff", **spec},
                                        timeout=300.0)
    assert final.body["state"] == "done"
    rows = client.result(final.body["job_id"]).body["rows"]
    assert len(rows) == 1
    # Both sides through the same canonical JSON: byte-identical reports,
    # including every float (json round-trips Python floats exactly).
    assert _canon(rows[0]) == _canon(expected)


def test_micro_job_matches_direct_sweep(client):
    from repro.experiments.runner import _sweep_point
    from repro.mpisim.config import mvapich2_like

    spec = {"kind": "micro", "pattern": "isend_irecv", "nbytes": 4096,
            "computes": [0.0, 5e-5], "iters": 4, "warmup": 1}
    sub, final = client.submit_and_wait(spec, timeout=120.0)
    assert final.body["state"] == "done"
    rows = client.result(final.body["job_id"]).body["rows"]
    assert len(rows) == 2
    direct = [
        _sweep_point("isend_irecv", 4096.0, c, mvapich2_like(), None, None,
                     4, 1)
        for c in (0.0, 5e-5)
    ]
    # Tuples become JSON arrays; compare through the same canonical form.
    assert _canon(rows) == _canon(direct)


# ---------------------------------------------------------------------------
# Crash isolation at the service boundary
# ---------------------------------------------------------------------------
def test_failed_cell_fails_only_its_own_job(tmp_path):
    """A job whose worker dies reports failure; the service and every
    other job keep going (the crash-isolated runner path)."""
    from repro.experiments.runner import Task
    from repro.service.jobs import Submission

    service = OverlapService(cache_root=tmp_path / "c", workers=2)
    service.start()
    try:
        bad = Submission(tenant="t", kind="nas", priority=0,
                         label="bad", spec={})
        good = Submission(tenant="t", kind="nas", priority=0,
                          label="good", spec={})
        s1, b1 = service.submit_tasks(bad, [Task(_crash_worker, (0,))])
        s2, b2 = service.submit_tasks(good, [Task(_ok_worker, (21,))])
        assert s1 == s2 == 202
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            states = {service.jobs[b1["job_id"]].state,
                      service.jobs[b2["job_id"]].state}
            if states <= {"done", "failed"}:
                break
            time.sleep(0.02)
        assert service.jobs[b1["job_id"]].state == "failed"
        assert service.jobs[b2["job_id"]].state == "done"
        code, result = service.job_result(b1["job_id"])
        assert code == 200
        assert result["rows"][0]["failed"] is True
        assert result["rows"][0]["exitcode"] == 33
        code, result = service.job_result(b2["job_id"])
        assert result["rows"] == [42]
        # Failed cells are never cached: resubmitting retries.
        s3, b3 = service.submit_tasks(bad, [Task(_crash_worker, (0,))])
        assert s3 == 202 and b3["cached"] is False
    finally:
        service.shutdown()


def _crash_worker(x):  # pragma: no cover - runs in a child process
    import os

    os._exit(33)


def _ok_worker(x):
    return x * 2


def _sleep_worker(seconds):
    import time as _time

    _time.sleep(seconds)
    return "slept"


def _flaky_host_worker(flag_path):
    """Fail retryably (simulated lost worker host) on the first run only."""
    import os as _os

    if not _os.path.exists(flag_path):
        with open(flag_path, "w", encoding="utf-8") as fh:
            fh.write("seen")
        exc = RuntimeError("shard 0 worker lost (simulated)")
        exc.retryable = True  # what ShardHostLost advertises
        raise exc
    return "recovered"


def _always_lost_worker(x):
    exc = RuntimeError("shard 0 worker lost (simulated)")
    exc.retryable = True
    raise exc


def _wait_finished(service, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if service.jobs[job_id].state in ("done", "failed", "cancelled"):
            return service.jobs[job_id].state
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never finished")


# ---------------------------------------------------------------------------
# Retryable (host-loss) failures re-queue once
# ---------------------------------------------------------------------------
def test_retryable_failure_requeues_once_and_succeeds(tmp_path):
    """A cell failing with ``retryable = True`` (a lost shard-worker
    host) re-queues its job once; the re-run succeeds and the job ends
    ``done`` with ``retried`` visible in its description."""
    from repro.experiments.runner import Task
    from repro.service.jobs import Submission

    service = OverlapService(cache_root=tmp_path / "c", workers=1)
    service.start()
    try:
        sub = Submission(tenant="t", kind="nas", priority=0,
                         label="flaky", spec={})
        flag = str(tmp_path / "host-came-back.flag")
        status, body = service.submit_tasks(
            sub, [Task(_flaky_host_worker, (flag,))])
        assert status == 202
        assert _wait_finished(service, body["job_id"]) == "done"
        job = service.jobs[body["job_id"]]
        assert job.describe()["retried"] is True
        code, result = service.job_result(body["job_id"])
        assert code == 200
        assert result["rows"] == ["recovered"]
        assert ("repro_service_retries_total 1"
                in service.metrics_text())
    finally:
        service.shutdown()


def _kill_own_worker_once_app(ctx, coordinator_pid, flag_path):
    """Two halo steps; rank 3's shard worker SIGKILLs itself the first
    time any run reaches step 1 (the flag file remembers)."""
    import os as _os
    import signal as _signal

    peer = ctx.rank ^ 1
    for step in range(2):
        if (step == 1 and ctx.rank == 3 and _os.getpid() != coordinator_pid
                and not _os.path.exists(flag_path)):
            with open(flag_path, "w", encoding="utf-8") as fh:
                fh.write("killed once")
            _os.kill(_os.getpid(), _signal.SIGKILL)
        r = yield from ctx.comm.irecv(peer, 7)
        s = yield from ctx.comm.isend(peer, 7, 1024.0)
        yield from ctx.comm.waitall([r, s])
    return ctx.rank


def _sharded_process_cell(flag_path):
    import os as _os

    from repro.runtime import run_app

    result = run_app(_kill_own_worker_once_app, 4, shards=2,
                     shard_backend="process",
                     app_args=(_os.getpid(), flag_path))
    return result.returns


def test_lost_local_shard_worker_is_retried_and_succeeds(tmp_path):
    """A process-backend job whose forked shard worker is SIGKILLed
    fails retryably (``ShardHostLost``), re-queues once, and the re-run
    completes -- local workers get the same treatment as remote hosts."""
    import os as _os

    from repro.experiments.runner import Task
    from repro.service.jobs import Submission

    service = OverlapService(cache_root=tmp_path / "c", workers=1)
    service.start()
    try:
        sub = Submission(tenant="t", kind="nas", priority=0,
                         label="local-loss", spec={})
        flag = str(tmp_path / "worker-killed.flag")
        status, body = service.submit_tasks(
            sub, [Task(_sharded_process_cell, (flag,))])
        assert status == 202
        assert _wait_finished(service, body["job_id"]) == "done"
        assert _os.path.exists(flag)
        assert service.jobs[body["job_id"]].describe()["retried"] is True
        code, result = service.job_result(body["job_id"])
        assert code == 200
        assert result["rows"] == [[0, 1, 2, 3]]
        assert "repro_service_retries_total 1" in service.metrics_text()
    finally:
        service.shutdown()


def test_retry_budget_is_one(tmp_path):
    """A job that loses its host on the retry too fails for real, with
    the retryable flag surfaced in the failed row."""
    from repro.experiments.runner import Task
    from repro.service.jobs import Submission

    service = OverlapService(cache_root=tmp_path / "c", workers=1)
    service.start()
    try:
        sub = Submission(tenant="t", kind="nas", priority=0,
                         label="doomed", spec={})
        status, body = service.submit_tasks(
            sub, [Task(_always_lost_worker, (0,))])
        assert status == 202
        assert _wait_finished(service, body["job_id"]) == "failed"
        job = service.jobs[body["job_id"]]
        assert job.describe()["retried"] is True
        code, result = service.job_result(body["job_id"])
        assert result["rows"][0]["failed"] is True
        assert result["rows"][0]["retryable"] is True
    finally:
        service.shutdown()


# ---------------------------------------------------------------------------
# Client keep-alive resilience + watch fetch-failure limit
# ---------------------------------------------------------------------------
def test_client_reconnects_after_server_drops_keepalive():
    """A server that silently drops the keep-alive between requests must
    not poison the client: the next request re-dials once and succeeds."""
    import socket
    import threading

    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind(("127.0.0.1", 0))
    srv.listen(4)
    port = srv.getsockname()[1]

    def serve():
        # Two connections: each answers one request claiming keep-alive,
        # then drops the socket without advertising Connection: close.
        for _ in range(2):
            conn, _addr = srv.accept()
            conn.recv(65536)
            conn.sendall(b"HTTP/1.1 200 OK\r\n"
                         b"Content-Length: 2\r\n\r\nok")
            conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        with ServiceClient(f"http://127.0.0.1:{port}") as c:
            assert c.text("/a") == (200, "ok")
            # The first socket is dead now; this must reconnect, not fail.
            assert c.text("/b") == (200, "ok")
        thread.join(timeout=5.0)
    finally:
        srv.close()


def test_watch_url_gives_up_after_consecutive_failures():
    """Live --url mode against a dead service exits 2 after the
    configured number of consecutive fetch failures -- it must not
    render an empty dashboard forever."""
    t0 = time.monotonic()
    rc = watch.main(["--url", "http://127.0.0.1:1/", "--interval", "0.01",
                     "--max-fetch-failures", "3"])
    assert rc == 2
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# ServiceClient.wait: back-off from 2 ms up to ``poll``
# ---------------------------------------------------------------------------
def _micro_spec(nbytes):
    return {"kind": "micro", "pattern": "isend_irecv", "nbytes": nbytes,
            "computes": [0.0, 2e-5], "iters": 10}


def test_wait_sees_a_short_job_soon_after_it_finishes(client):
    """A cold micro job takes ~10 ms; the caller must not then sit out a
    fixed 50 ms poll interval on top of it."""
    # The first job forks the worker and imports what a micro job needs.
    _sub, done = client.submit_and_wait(_micro_spec(1000))
    assert done.body["state"] == "done"
    slack = []
    for nbytes in (1001, 1002, 1003):  # never-seen content: no cache hit
        t0 = time.monotonic()
        sub, done = client.submit_and_wait(_micro_spec(nbytes))
        elapsed = time.monotonic() - t0
        assert sub.status == 202 and done.body["state"] == "done"
        own = done.body["finished_unix"] - done.body["created_unix"]
        slack.append(elapsed - (3 * own + 0.010))
    # Best of three: one descheduled request must not fail the test.
    assert min(slack) <= 0, slack


def test_wait_polls_a_long_job_at_the_poll_cap(tmp_path, monkeypatch):
    from repro.experiments.runner import Task
    from repro.service.jobs import Submission

    service = OverlapService(cache_root=tmp_path / "c", workers=1)
    with ServerThread(service) as srv, ServiceClient(srv.url) as c:
        reads, read_status = [], c.job
        monkeypatch.setattr(
            c, "job", lambda job_id: reads.append(job_id) or read_status(job_id))
        sleeper = Submission(tenant="t", kind="nas", priority=0,
                             label="sleeper", spec={})
        _status, body = service.submit_tasks(
            sleeper, [Task(_sleep_worker, (1.0,))])
        final = c.wait(body["job_id"], timeout=30.0)
        assert final.body["state"] == "done"
        # 2+4+8+16+32 ms of ramp, then one read per 50 ms.
        assert 5 <= len(reads) <= 30, len(reads)


def test_wait_never_sleeps_past_its_timeout(tmp_path):
    from repro.experiments.runner import Task
    from repro.service import ServiceError
    from repro.service.jobs import Submission

    service = OverlapService(cache_root=tmp_path / "c", workers=1)
    with ServerThread(service) as srv, ServiceClient(srv.url) as c:
        sleeper = Submission(tenant="t", kind="nas", priority=0,
                             label="sleeper", spec={})
        _status, body = service.submit_tasks(
            sleeper, [Task(_sleep_worker, (1.5,))])
        t0 = time.monotonic()
        with pytest.raises(ServiceError, match="still"):
            c.wait(body["job_id"], timeout=0.3, poll=5.0)
        assert time.monotonic() - t0 < 0.3 + 0.25
