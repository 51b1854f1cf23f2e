"""The job service on the runner's warm worker set: concurrency without
cross-talk, a job's cells side by side on its cell slots, worker metrics
on ``/v1/metrics``, and what a finished job keeps in server memory."""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
import tracemalloc

import pytest

from repro.experiments.runner import (
    Task,
    shutdown_shared_pool,
    worker_stats,
)
from repro.service import OverlapService, ServiceClient, ServerThread
from repro.service.core import PackedRows
from repro.service.jobs import parse_submission
from tests.test_service_queue import _crasher, _sub, _wait_all


def _tag_and_pid(tag, seconds):
    time.sleep(seconds)
    return {"tag": tag, "pid": os.getpid()}


def _interval(tag, seconds):
    start = time.time()
    time.sleep(seconds)
    return {"tag": tag, "pid": os.getpid(), "start": start, "end": time.time()}


def _exit_after(seconds):  # pragma: no cover - runs in a child process
    time.sleep(seconds)
    os._exit(43)


def _micro_spec(index):
    return {"kind": "micro", "pattern": "isend_irecv",
            "nbytes": 2048 + index, "computes": [0.0, 2e-5], "iters": 2}


def test_two_concurrent_jobs_use_two_workers_without_crosstalk(tmp_path):
    service = OverlapService(cache_root=tmp_path / "c", workers=2)
    service.start()
    before = worker_stats()
    waves = []
    for wave in range(2):
        ids = {}
        for name in ("a", "b"):
            tag = f"{name}{wave}"
            status, body = service.submit_tasks(
                _sub("t", tag), [Task(_tag_and_pid, (tag, 0.3))])
            assert status == 202
            ids[tag] = body["job_id"]
        _wait_all(service, ids.values())
        rows = {tag: service.jobs[job_id].rows()[0]
                for tag, job_id in ids.items()}
        assert {tag: row["tag"] for tag, row in rows.items()} \
            == {tag: tag for tag in ids}
        waves.append({row["pid"] for row in rows.values()})
    # Both jobs of a wave ran at once, each on its own worker; the second
    # wave found those two workers warm.
    assert len(waves[0]) == 2 and waves[1] == waves[0]
    assert worker_stats()["spawns"] - before["spawns"] == 2
    service.shutdown()
    shutdown_shared_pool()
    assert multiprocessing.active_children() == []


def test_worker_spawns_and_retirements_are_on_the_metrics_endpoint(tmp_path):
    def sample(text, name):
        (line,) = [ln for ln in text.splitlines() if ln.startswith(name + " ")]
        return float(line.split()[-1])

    spawns = "repro_runner_worker_spawns_total"
    crashed = 'repro_runner_worker_retired_total{cause="crash"}'
    service = OverlapService(cache_root=tmp_path / "c", workers=1)
    with ServerThread(service) as server, ServiceClient(server.url) as client:
        before = client.metrics_text()
        for index in range(5):
            _sub_resp, final = client.submit_and_wait(_micro_spec(index))
            assert final.body["state"] == "done"
        after = client.metrics_text()
        # Five cold two-cell jobs, one job slot: at most one fork per
        # cell slot, not ten.
        forked = sample(after, spawns) - sample(before, spawns)
        assert 1 <= forked <= service.workers * service.cell_slots
        assert sample(after, crashed) == sample(before, crashed)
        for cause in ("cancel", "raised"):
            assert f'repro_runner_worker_retired_total{{cause="{cause}"}}' \
                in after

        status, body = service.submit_tasks(
            _sub("t", "crash"), [Task(_crasher, ("x",))])
        assert status == 202
        _wait_all(service, [body["job_id"]])
        final = client.metrics_text()
        assert sample(final, crashed) - sample(after, crashed) == 1


def test_a_jobs_cells_run_side_by_side_on_its_cell_slots(tmp_path):
    service = OverlapService(cache_root=tmp_path / "c", workers=1)
    if service.cell_slots < 2:
        pytest.skip("one usable CPU: a lone job slot gets one cell slot")
    service.start()
    try:
        _status, body = service.submit_tasks(
            _sub("t", "pair"), [Task(_interval, (tag, 0.3)) for tag in "ab"])
        _wait_all(service, [body["job_id"]])
        a, b = service.jobs[body["job_id"]].rows()
        assert (a["tag"], b["tag"]) == ("a", "b") and a["pid"] != b["pid"]
        assert max(a["start"], b["start"]) < min(a["end"], b["end"])

        spec = _micro_spec(7)
        _status, body = service.submit(spec)
        _wait_all(service, [body["job_id"]])
        _sub_, tasks = parse_submission(spec)
        assert service.jobs[body["job_id"]].rows() == [t.run() for t in tasks]
    finally:
        service.shutdown()


def test_a_cell_that_kills_its_worker_costs_only_that_cell(tmp_path):
    service = OverlapService(cache_root=tmp_path / "c", workers=1)
    service.start()
    try:
        before = worker_stats()
        _status, body = service.submit_tasks(
            _sub("t", "mixed"),
            [Task(_exit_after, (0.1,)), Task(_tag_and_pid, ("ok", 0.4))])
        _wait_all(service, [body["job_id"]])
        job = service.jobs[body["job_id"]]
        crashed, ok = job.rows()
        assert job.state == "failed"
        assert crashed["failed"] is True and crashed["exitcode"] == 43
        assert ok["tag"] == "ok"
        after = worker_stats()
        assert after["crash"] - before["crash"] == 1
        assert (after["cancel"], after["raised"]) \
            == (before["cancel"], before["raised"])
    finally:
        service.shutdown()


def test_delete_mid_job_leaves_no_worker_process(tmp_path):
    service = OverlapService(cache_root=tmp_path / "c", workers=1)
    service.start()
    try:
        _status, body = service.submit_tasks(
            _sub("t", "long"), [Task(_tag_and_pid, (tag, 30.0))
                                for tag in "ab"])
        job = service.jobs[body["job_id"]]
        deadline = time.monotonic() + 10.0
        while len(multiprocessing.active_children()) < min(2, service.cell_slots):
            assert time.monotonic() < deadline, "cells never started"
            time.sleep(0.01)
        assert service.cancel(job.id)[0] == 200
        while job.execution.state == "running":
            assert time.monotonic() < deadline + 10.0, "cancel never landed"
            time.sleep(0.01)
        assert job.state == "cancelled"
        assert multiprocessing.active_children() == []
    finally:
        service.shutdown()


def test_packed_rows_behave_like_the_rows_they_hold():
    rows = [{"tag": "x", "v": (1, 2.5)}, (0.1, {"a": [1, 2]}, None), "text"]
    packed = PackedRows(rows)
    assert len(packed) == 3
    assert packed == rows and list(packed) == rows
    assert packed[1] == rows[1] and packed[-1] == "text"
    assert packed[1:] == rows[1:] and packed[5:] == []
    assert packed != rows[:2]
    assert isinstance(packed[0]["v"], tuple)  # pickled, not JSON-ified


def _rss_kib():
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1024


def test_finished_jobs_stay_small_and_pages_equal_the_unpacked_rows(tmp_path):
    """500 finished two-cell jobs may pin at most 7 KiB of RSS each (they
    pinned ~22 KiB when rows stayed unpickled object graphs and the
    execution kept its tasks), 200 more at most 3.7 KiB of Python objects
    each (5.3 KiB when rows were uncompressed and a finished execution
    kept its cancel event), and what ``job_result`` pages out of the
    packed rows is what the cells returned."""
    jobs = 500
    service = OverlapService(cache_root=tmp_path / "c", workers=1)
    with ServerThread(service) as server, ServiceClient(server.url) as client:
        def serve(lo, hi):
            job_id = None
            for index in range(lo, hi):
                status, body = service.submit(_micro_spec(index))
                assert status == 202
                job_id = body["job_id"]
                deadline = time.monotonic() + 30.0
                while service.jobs[job_id].state in ("queued", "running"):
                    assert time.monotonic() < deadline, "job never finished"
                    time.sleep(0.001)
                assert service.jobs[job_id].state == "done"
            return job_id

        serve(0, 50)  # warm the worker, the allocator and the job table
        gc.collect()
        rss0 = _rss_kib()
        last = serve(50, 50 + jobs)
        gc.collect()
        per_job = (_rss_kib() - rss0) / jobs
        assert per_job <= 7.0, f"{per_job:.1f} KiB RSS per finished job"

        tracemalloc.start()
        try:
            traced0 = tracemalloc.get_traced_memory()[0]
            serve(50 + jobs, 250 + jobs)
            gc.collect()
            traced = (tracemalloc.get_traced_memory()[0] - traced0) / 200
        finally:
            tracemalloc.stop()
        assert traced <= 3.7 * 1024, f"{traced:.0f} B per finished job"

        execution = service.jobs[last].execution
        assert execution.tasks == [] and execution.cancel_event is None
        _sub_, tasks = parse_submission(_micro_spec(50 + jobs - 1))
        direct = [task.run() for task in tasks]
        assert service.job_result(last)[1]["rows"] == direct
        for offset in (0, 1):
            code, page = service.job_result(last, offset=offset, limit=1)
            assert code == 200 and page["total_rows"] == 2
            assert page["rows"] == [direct[offset]]
        assert service.job_result(last, offset=2)[1]["rows"] == []
        # Over HTTP a tuple is a JSON list; compare at that level.
        import json
        as_json = json.loads(json.dumps(direct))
        assert client.result(last, offset=1, limit=1).body["rows"] \
            == as_json[1:]
        streamed = client.stream_result(last)
        assert streamed[0]["total_rows"] == 2 and streamed[1:] == as_json
