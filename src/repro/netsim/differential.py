"""Differential harness: compare everything two runs can observe.

A fast formulation is only admissible because it is *observationally
identical* to the slow one it replaces: every callback runs at the same
simulated time, in the same order, so every report, telemetry window and
deterministic metric matches bit for bit.  This module is the referee's
comparison half: :func:`compare_runs` takes two finished runs, and the
sharded referee (:func:`run_sharded_pair` / :func:`compare_sharded` /
:func:`assert_sharded_identical`) runs one workload single-process and
sharded and compares them.

Used by ``python -m repro.experiments.halo --check``,
``bench/workloads.py`` and the tests (the per-packet NIC oracle that feeds :func:`compare_runs` lives
in ``tests/oracles.py``).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.netsim.params import NetworkParams

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.launcher import RunResult

#: Metric families legitimately allowed to differ between the two sides:
#: host-clock measurements (never deterministic) and descriptions of the
#: pending-store *shape* or the macro path itself (a burst keeps one store
#: entry for many sub-events by design, and the per-packet oracle opens no
#: bursts at all).  Everything else must match exactly.
EXCLUDED_METRIC_FAMILIES = frozenset({
    "repro_engine_sim_seconds_per_host_second",
    "repro_equeue_flush_seconds",
    "repro_peruse_dispatch_seconds",
    "repro_engine_heap_size",
    "repro_engine_heap_hiwater",
    "repro_engine_bursts_opened",
    "repro_engine_burst_reinserts",
})


@dataclasses.dataclass
class Delta:
    """One compared measure: its name and both sides' values."""

    measure: str
    equal: bool
    fast: object
    packet: object


def comparable_metrics(snapshot: dict) -> dict:
    """The deterministic, path-independent subset of a metrics snapshot."""
    metrics = typing.cast(dict, snapshot.get("metrics", {}))
    return {
        name: family
        for name, family in metrics.items()
        if name not in EXCLUDED_METRIC_FAMILIES
    }


def compare_runs(
    fast: "RunResult",
    packet: "RunResult",
    fast_metrics: "dict | None" = None,
    packet_metrics: "dict | None" = None,
) -> list[Delta]:
    """Compare everything observable; one :class:`Delta` per measure.

    Floats are compared with ``==`` (bit identity), never with a
    tolerance: the fast path owes exact equality, not approximation.
    """
    deltas: list[Delta] = []

    def add(measure: str, a: object, b: object) -> None:
        deltas.append(Delta(measure, a == b, a, b))

    add("elapsed", fast.elapsed, packet.elapsed)
    add("rank_finish_times", fast.rank_finish_times, packet.rank_finish_times)
    add("compute_logs", fast.compute_logs, packet.compute_logs)
    for rank, (rf, rp) in enumerate(zip(fast.reports, packet.reports)):
        if rf is None or rp is None:
            add(f"rank{rank}.report", rf, rp)
            continue
        df, dp = rf.to_dict(), rp.to_dict()
        for key in ("wall_time", "event_count", "total", "sections",
                    "call_stats"):
            add(f"rank{rank}.report.{key}", df[key], dp[key])
    if fast.telemetry is not None and packet.telemetry is not None:
        for tf, tp in zip(fast.telemetry.per_rank, packet.telemetry.per_rank):
            add(f"rank{tf.rank}.telemetry.windows",
                tf.series.to_dict(), tp.series.to_dict())
            add(f"rank{tf.rank}.telemetry.events", tf.events, tp.events)
    elif (fast.telemetry is None) != (packet.telemetry is None):
        add("telemetry", fast.telemetry, packet.telemetry)
    if fast_metrics is not None and packet_metrics is not None:
        mf = comparable_metrics(fast_metrics)
        mp = comparable_metrics(packet_metrics)
        for name in sorted(set(mf) | set(mp)):
            add(f"metrics.{name}", mf.get(name), mp.get(name))
    return deltas


def run_sharded_pair(
    app: typing.Callable[..., typing.Generator],
    nprocs: int,
    shards: int,
    config: object = None,
    params: "NetworkParams | None" = None,
    app_args: tuple = (),
    seed: int = 0,
    label: str = "",
    backend: str = "process",
    record_transfers: bool = False,
    hosts: "typing.Sequence | None" = None,
    transport: "typing.Any | None" = None,
) -> "tuple[RunResult, RunResult]":
    """Run once single-process and once sharded; both use channel delivery.

    The single-process run is the ground truth the sharded engine owes
    bit-identical results to (``delivery="channel"`` on both sides -- that
    is the semantics the sharding refactor is defined against).  Returns
    ``(single, sharded)``.  ``backend="socket"`` additionally takes
    ``hosts`` (running ``repro.sim.remote`` worker addresses) and
    optional ``transport`` options, so the referee covers the multi-host
    path with the same bit-identity bar as the local backends.
    """
    from repro.runtime.launcher import run_app

    base = params if params is not None else NetworkParams()
    chan = dataclasses.replace(base, delivery="channel")
    single = run_app(
        app, nprocs, config=config, params=chan,  # type: ignore[arg-type]
        app_args=app_args, seed=seed, label=label,
        record_transfers=record_transfers,
    )
    sharded = run_app(
        app, nprocs, config=config, params=chan,  # type: ignore[arg-type]
        app_args=app_args, seed=seed, label=label,
        record_transfers=record_transfers,
        shards=shards, shard_backend=backend,
        shard_hosts=hosts, shard_transport=transport,
    )
    return single, sharded


def compare_sharded(single: "RunResult", sharded: "RunResult") -> list[Delta]:
    """Deltas between a single-process channel run and a sharded run.

    Reuses :func:`compare_runs` -- the ``fast`` side is the single-process
    run, the ``packet`` side the sharded one -- and adds the merged
    ground-truth transfer log when both runs recorded it (order inside the
    log is per-shard append order, so both sides are sorted first).
    """
    deltas = compare_runs(single, sharded)
    log_a = getattr(single.fabric, "transfer_log", None)
    log_b = getattr(sharded.fabric, "transfer_log", None)
    if log_a is not None or log_b is not None:
        a = sorted(log_a) if log_a is not None else None
        b = sorted(log_b) if log_b is not None else None
        deltas.append(Delta("transfer_log", a == b, a, b))
    return deltas


def assert_no_deltas(deltas: list[Delta]) -> list[Delta]:
    """Raise on any unequal measure of a sharded comparison."""
    bad = [d for d in deltas if not d.equal]
    if bad:
        lines = "\n".join(
            f"  {d.measure}: single={d.fast!r} sharded={d.packet!r}"
            for d in bad[:10]
        )
        raise AssertionError(
            f"sharded run diverged from single-process ground truth "
            f"({len(bad)} of {len(deltas)} measures):\n{lines}"
        )
    return deltas


def assert_sharded_identical(
    app: typing.Callable[..., typing.Generator],
    nprocs: int,
    shards: int,
    **kwargs: object,
) -> list[Delta]:
    """Run the sharded differential and raise on any inequality.

    The one-call referee used by tests: any delta between the sharded run
    and its single-process ground truth is a correctness bug in the
    partitioned engine, never acceptable noise.
    """
    single, sharded = run_sharded_pair(app, nprocs, shards, **kwargs)  # type: ignore[arg-type]
    return assert_no_deltas(compare_sharded(single, sharded))
