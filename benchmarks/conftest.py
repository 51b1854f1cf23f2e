"""Shared helpers for the host-performance benchmarks.

Each file here times the simulator, the sweep runner, the service or an
observer on the host, prints its series, writes it to
``benchmarks/results/`` and merges its numbers into
``BENCH_simulator.json``.  The paper's figures and the ablations' design
claims are not here: tier-1 checks them, in ``tests/test_paper_claims.py``.
Run with::

    python -m pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import json
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

BENCH_PATH = pathlib.Path(__file__).parent.parent / "BENCH_simulator.json"

#: Measured on the seed revision (before the O(1) processor clocks, the
#: inlined engine run loop, and the shared endpoint waiter), same
#: workloads, same machine class.  Kept frozen for before/after context.
BASELINE_PRE_PR = {
    "engine_ping_pong": {"mean_s": 0.067, "events": 40004,
                         "events_per_s": 597_000},
    "full_stack_lu": {"mean_s": 0.1437, "instrumented_events": 7380,
                      "simulated_s": 0.5362},
}


#: What an "event" in the ``events_per_s`` capacity numbers is changed once;
#: the note travels with the file so nobody reads a design change as a
#: throughput regression (or the reverse).
EVENT_COUNT_NOTE = (
    "Since PR 17 (per-rank CPU clocks, docs/performance.md) a CPU cost only "
    "its own rank can observe is no longer an engine event, so the shard "
    "blocks' events_per_s (engine events / busiest worker's CPU seconds) "
    "divide ~37% fewer events by ~25% less CPU for the same simulated work. "
    "Engine events per job, before -> after: shard_scale halo 32x120 "
    "103776 -> 65408 (sync rounds 841 -> 721); shard_scale_hi 256x30 "
    "208128 -> 131584, 1024x10 279552 -> 178176, 4096x4 454656 -> 294912; "
    "shard_socket halo 64x40 69312 -> 43776.  Same host, shard_scale x1: "
    "busiest worker 0.38 -> 0.29 s CPU, events_per_s_x1 270k -> 227k."
)


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def bench_record():
    """Collect per-test numbers; merge them into BENCH_simulator.json.

    Session-scoped and merge-on-write so benchmark modules can run
    independently (``test_simulator_performance.py`` and
    ``test_telemetry_overhead.py`` each update only their own keys,
    preserving the other's last numbers and the frozen baseline).
    """
    current: dict[str, dict] = {}
    yield current
    if not current:
        return
    payload = {
        "description": "simulator host-throughput and telemetry-overhead "
        "benchmarks (pytest benchmarks/test_simulator_performance.py "
        "benchmarks/test_telemetry_overhead.py --benchmark-only).  "
        + EVENT_COUNT_NOTE,
        "baseline_pre_pr": BASELINE_PRE_PR,
        "current": {},
    }
    if BENCH_PATH.exists():
        try:
            previous = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
            payload["current"] = dict(previous.get("current", {}))
        except (json.JSONDecodeError, OSError):
            pass
    payload["current"].update(current)
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")


@pytest.fixture
def emit(results_dir, capsys):
    """Print a figure's rendered series and persist it to results/."""

    def _emit(figure_id: str, text: str) -> None:
        path = results_dir / f"{figure_id}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        with capsys.disabled():
            print(f"\n=== {figure_id} ===\n{text}")

    return _emit
