"""SweepProgress publication and the watch dashboard CLI."""

import json

import pytest

from repro.metrics import MetricsRegistry, SweepProgress, load_status
from repro.metrics.progress import OPENMETRICS_FILENAME, STATUS_FILENAME
from repro.tools import watch
from tests.oracles import parse_openmetrics


def _drive(progress: SweepProgress) -> None:
    progress.start(total=4, jobs=2)
    progress.task_done(0.5, name="fig03")
    progress.task_done(0.0, cached=True, name="fig04")
    progress.task_done(0.3, name="fig05")
    progress.task_done(0.2, name="fig06")
    progress.finish()


def test_progress_publishes_status_and_openmetrics(tmp_path):
    progress = SweepProgress(tmp_path, label="unit", min_write_interval=0.0)
    _drive(progress)

    payload = load_status(tmp_path)
    assert payload is not None
    assert payload["label"] == "unit"
    assert payload["total"] == 4
    assert payload["done"] == 4
    assert payload["cached"] == 1
    assert payload["queued"] == 0
    assert payload["finished"] is True
    assert payload["cache_ratio"] == 0.25
    assert payload["busy_s"] == 1.0
    assert 0.0 < payload["utilization"] <= 1.0
    assert payload["last_task"] == "fig06"

    om = (tmp_path / OPENMETRICS_FILENAME).read_text()
    parsed = parse_openmetrics(om)
    samples = parsed["repro_sweep_tasks"]["samples"]
    assert samples[("_total", (("outcome", "run"),))] == 3.0
    assert samples[("_total", (("outcome", "cached"),))] == 1.0
    assert parsed["repro_sweep_task_seconds"]["samples"][("_count", ())] == 3.0
    assert parsed["repro_sweep_tasks_queued"]["samples"][("", ())] == 0.0


def test_progress_eta_uses_avg_task_and_jobs(tmp_path):
    progress = SweepProgress(None, label="eta")
    progress.start(total=10, jobs=2)
    progress.task_done(4.0)
    status = progress.status()
    # avg 4.0s, 9 remaining, 2 workers -> 18s
    assert status["avg_task_s"] == 4.0
    assert status["eta_s"] == 18.0


def test_progress_without_dir_only_calls_hook(tmp_path, monkeypatch):
    seen = []
    progress = SweepProgress(None, on_update=seen.append)
    progress.start(total=1)
    progress.task_done(0.1)
    progress.finish()
    assert len(seen) == 3
    assert seen[-1]["finished"] is True


def test_progress_throttles_intermediate_writes(tmp_path):
    progress = SweepProgress(tmp_path, min_write_interval=3600.0)
    progress.start(total=3, jobs=1)  # forced first write
    first = (tmp_path / STATUS_FILENAME).read_text()
    progress.task_done(0.1)
    progress.task_done(0.1)
    assert (tmp_path / STATUS_FILENAME).read_text() == first  # throttled
    progress.finish()  # forced last write
    final = json.loads((tmp_path / STATUS_FILENAME).read_text())
    assert final["done"] == 2 and final["finished"] is True


def test_progress_accepts_external_registry(tmp_path):
    reg = MetricsRegistry()
    progress = SweepProgress(tmp_path, registry=reg, min_write_interval=0.0)
    _drive(progress)
    assert "repro_sweep_tasks" in reg


def test_load_status_missing_or_corrupt(tmp_path):
    assert load_status(tmp_path) is None
    (tmp_path / STATUS_FILENAME).write_text("{not json")
    assert load_status(tmp_path) is None


# ---------------------------------------------------------------------------
# watch CLI
# ---------------------------------------------------------------------------
def test_render_status_placeholder_without_payload():
    text = watch.render_status(None)
    assert "no sweep status" in text


def test_render_status_formats_dashboard():
    payload = {
        "label": "paper", "total": 8, "done": 4, "cached": 2, "queued": 4,
        "jobs": 2, "elapsed_s": 10.0, "avg_task_s": 2.5, "utilization": 0.8,
        "cache_ratio": 0.5, "eta_s": 5.0, "last_task": "fig12",
        "finished": False,
    }
    text = watch.render_status(payload)
    assert "sweep paper [running]" in text
    assert "4/8 tasks (50%)" in text
    assert "cached 2 (50% hit)" in text
    assert "worker util 80%" in text
    assert "ETA 5s" in text
    assert "last: fig12" in text
    assert "stages" not in text
    payload["finished"] = True
    assert "[done]" in watch.render_status(payload)
    # A traced service publishes per-stage span latency; the costliest
    # stages come first.
    payload["stages"] = {
        "service.queue": {"count": 3, "avg_ms": 1.0, "total_s": 0.003},
        "service.execute": {"count": 3, "avg_ms": 12.0, "total_s": 0.036},
    }
    assert ("  stages service.execute 12.0msx3   service.queue 1.0msx3"
            in watch.render_status(payload))


def test_fmt_eta_ranges():
    assert watch._fmt_eta(0.0) == "--"
    assert watch._fmt_eta(42.0) == "42s"
    assert watch._fmt_eta(120.0) == "2.0m"
    assert watch._fmt_eta(7200.0) == "2.0h"


def test_watch_once_exits_nonzero_without_status(tmp_path, capsys):
    rc = watch.main(["--once", "--metrics-dir", str(tmp_path)])
    assert rc == 1
    assert "no sweep status" in capsys.readouterr().out


def test_watch_once_renders_published_sweep(tmp_path, capsys):
    progress = SweepProgress(tmp_path, label="smoke", min_write_interval=0.0)
    _drive(progress)
    rc = watch.main(["--once", "--metrics-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sweep smoke [done]" in out
    assert "4/4 tasks (100%)" in out


def test_watch_live_exits_when_finished(tmp_path, capsys):
    progress = SweepProgress(tmp_path, label="live", min_write_interval=0.0)
    _drive(progress)
    rc = watch.main(["--metrics-dir", str(tmp_path), "--interval", "0.01"])
    assert rc == 0
    assert "sweep live [done]" in capsys.readouterr().err


def test_live_renderer_repaints_in_place():
    import io

    stream = io.StringIO()
    renderer = watch.LiveRenderer(stream)
    renderer.update(None)
    renderer.update(None)
    text = stream.getvalue()
    assert "\x1b[1A\x1b[J" in text  # second frame clears the first (1 line)
