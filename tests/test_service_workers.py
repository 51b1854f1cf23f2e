"""The job service on the runner's warm worker set: concurrency without
cross-talk, worker metrics on ``/v1/metrics``, and what a finished job
keeps in server memory."""

from __future__ import annotations

import gc
import multiprocessing
import os
import time

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
        # Five cold two-cell jobs, one worker thread: one fork, not ten.
        assert sample(after, spawns) - sample(before, spawns) == 1
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
    """500 finished two-cell jobs may pin at most 10 KiB each (they pinned
    ~22 KiB when rows stayed unpickled object graphs and the execution
    kept its tasks), and what ``job_result`` pages out of the packed
    rows is what the cells returned."""
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
        assert per_job <= 10.0, f"{per_job:.1f} KiB RSS per finished job"

        execution = service.jobs[last].execution
        assert execution.tasks == []
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
