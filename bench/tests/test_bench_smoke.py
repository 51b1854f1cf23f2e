"""Smoke tests of the benchmark itself (not part of the tier-1 suite).

Run with ``pytest bench/tests -q``.  They drive ``bench/run.py --smoke``
(workloads at about 1/20 size) the way the driver does and check the
contract in ``BENCHMARK.json``: the metrics emitted, span arithmetic,
that a wrong result fails the run, and that no process is left behind.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
sys.path.insert(0, BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)
from workloads import WORKLOADS as _CLASSES  # noqa: E402

#: All six; ``BENCHMARK.json`` names the four that gate later changes.
WORKLOADS = list(_CLASSES)


def run_bench(*argv: str, **popen: object) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, "--smoke", *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=180,
                          **popen)


def contract_lines(stdout: str) -> "list[dict]":
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith('{"correct"')]


def session_members(sid: int) -> "list[int]":
    """Live processes whose session id is ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(entry))
    return members


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                             ("1", "per_layer")])
def test_every_declared_metric_and_nothing_else(trace, section, tmp_path):
    assert {w["name"] for w in CONTRACT["workloads"]} <= set(WORKLOADS)
    done = run_bench("--trace", trace, "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    lines = contract_lines(done.stdout)
    assert len(lines) == len(WORKLOADS)
    declared = {m["name"]: m["unit"] for m in CONTRACT[section]}
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert line["attempted"] >= 1 and line["failed"] == 0
        assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
        for entry in line["metrics"].values():
            assert isinstance(entry["value"], (int, float))
    # The last line of standard output is the last workload's result.
    assert done.stdout.strip().splitlines()[-1].startswith('{"correct"')
    traces = {f"{w}.trace.json" for w in WORKLOADS} if trace == "1" else set()
    written = sorted(set(os.listdir(tmp_path)) - traces)
    assert len(written) == len(WORKLOADS)
    assert all(os.path.exists(tmp_path / name) for name in traces)
    for name, workload in zip(written, sorted(WORKLOADS)):
        with open(tmp_path / name, encoding="utf-8") as fh:
            result = json.load(fh)
        assert result["workload"] == workload
        assert result["loop"] == {"kind": "closed", "clients": 1}
        for key in ("git_sha", "git_dirty", "python", "cpu_model", "nproc",
                    "loadavg_at_start"):
            assert key in result["provenance"]


def test_span_self_times_fit_inside_their_parents():
    done = run_bench("--workload", "service_cold", "--workload",
                     "halo_eager", "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    for workload in ("service_cold", "halo_eager"):
        path = os.path.join(BENCH, "out", f"{workload}.trace.json")
        with open(path, encoding="utf-8") as fh:
            events = [e for e in json.load(fh)["traceEvents"]
                      if e["ph"] == "X"]
        assert events
        by_id = {e["args"]["id"]: e for e in events}
        for event in events:
            own = event["args"]["self_us"]
            assert -1e-3 <= own <= event["dur"] + 1e-3
            parent = by_id.get(event["args"]["parent"])
            if parent is not None:
                assert own <= parent["dur"] + 1e-3
                assert event["ts"] >= parent["ts"] - 1e-3


def test_self_time_subtracts_the_union_of_children():
    from spans import Span, Spans

    spans = Spans(enabled=True)
    spans.records = [
        Span("root", "a", 0.0, 10.0, -1, 0, 1, {}),
        Span("child", "b", 1.0, 4.0, 0, 0, 1, {}),
        Span("overlapping child", "b", 3.0, 6.0, 0, 0, 2, {}),
        Span("grandchild", "c", 1.5, 2.0, 1, 0, 1, {}),
    ]
    assert spans.self_times() == [5.0, 2.5, 3.0, 0.5]
    assert spans.self_time_by_layer() == {"a": 5.0, "b": 5.5, "c": 0.5}
    assert Spans(enabled=False).span("x", "y").__enter__() is None


def test_injected_wrong_result_fails_the_run(tmp_path):
    done = run_bench("--workload", "halo_eager", "--inject-wrong",
                     "--out-dir", str(tmp_path))
    assert done.returncode != 0
    (line,) = contract_lines(done.stdout)
    assert line["correct"] is False


@pytest.mark.parametrize("workload", ["service_hot", "halo_sharded"])
@pytest.mark.parametrize("extra", [(), ("--inject-wrong",)])
def test_children_are_reaped(workload, extra, tmp_path):
    proc = subprocess.Popen(
        [sys.executable, RUN, "--smoke", "--workload", workload,
         "--out-dir", str(tmp_path), *extra],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    code = proc.wait(timeout=120)
    assert (code == 0) == (not extra)
    assert session_members(proc.pid) == []


def test_server_is_stopped_when_the_run_is_terminated(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, RUN, "--smoke", "--workload", "service_cold",
         "--seconds", "60", "--out-dir", str(tmp_path)],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    def server_is_up() -> bool:
        for pid in session_members(proc.pid):
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as fh:
                    if b"repro.tools.serve" in fh.read():
                        return True
            except OSError:
                pass
        return False

    deadline = time.monotonic() + 60
    while not server_is_up():
        assert proc.poll() is None and time.monotonic() < deadline
        time.sleep(0.05)
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=60) != 0
    assert session_members(proc.pid) == []


def test_compare_verdicts():
    from compare import verdict

    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(base, [x * 1.02 for x in base], "lower", 0.10)[0] == "same"
    assert verdict(base, [x * 1.30 for x in base], "lower", 0.10)[0] == "worse"
    assert verdict(base, [x * 0.70 for x in base], "lower", 0.10)[0] == "better"
    assert verdict(base, [x * 0.70 for x in base], "higher", 0.10)[0] == "worse"
    noisy = [80.0, 120.0, 95.0, 105.0, 100.0]
    assert verdict(noisy, [x * 1.15 for x in noisy], "lower",
                   0.10)[0] == "unresolved"
    # Every run of B beyond every run of A resolves even a wide spread.
    assert verdict(noisy, [x * 2 for x in noisy], "lower", 0.10)[0] == "worse"
    assert verdict([100.0], [130.0], "lower", 0.10)[0] == "unresolved"
    assert verdict([0.0, 0.0], [0.0, 1.0], "lower", 0.0)[0] == "worse"
    assert verdict([0.0, 0.0], [0.0, 0.0], "lower", 0.0)[0] == "same"
