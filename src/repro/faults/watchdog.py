"""Watchdog policy + diagnostic dump for wedged simulations.

The mechanism (stepped guarded run) lives in
:meth:`repro.sim.engine.Engine.run_guarded`; this module holds the policy
knobs (:class:`WatchdogConfig`) and the post-mortem snapshot
(:class:`WatchdogDiagnostic`) that :func:`repro.runtime.launcher.run_app`
attaches to its :class:`~repro.runtime.launcher.RunResult` instead of
raising or hanging.  Reports harvested from such a run are best-effort
partial reports: the monitors finalize normally, so in-flight transfers
resolve under the paper's Case 3 bounds.
"""

from __future__ import annotations

import dataclasses
import typing


@dataclasses.dataclass(frozen=True)
class WatchdogConfig:
    """When to give up on a run instead of hanging.

    ``max_sim_time`` caps total simulated seconds; ``stall_sim_time``
    trips when the progress token (events stamped + packets received)
    stays flat for that much simulated time.  ``check_interval`` is how
    often the guarded run re-checks (default: a quarter of the tightest
    guard).
    """

    max_sim_time: float | None = None
    stall_sim_time: float | None = 0.05
    check_interval: float | None = None

    def __post_init__(self) -> None:
        if self.max_sim_time is None and self.stall_sim_time is None:
            raise ValueError("watchdog needs max_sim_time or stall_sim_time")
        for name in ("max_sim_time", "stall_sim_time", "check_interval"):
            value = getattr(self, name)
            if value is not None and value <= 0.0:
                raise ValueError(f"{name} must be positive, got {value}")


@dataclasses.dataclass
class RankSnapshot:
    """One rank's state at the moment the watchdog fired."""

    rank: int
    alive: bool
    waiting_on: str
    outstanding_sends: int
    outstanding_recvs: int
    pending_local: int
    unacked_packets: int
    inbound_depth: int
    cq_depth: int


@dataclasses.dataclass
class WatchdogDiagnostic:
    """Why the run was stopped, and what everything was doing."""

    reason: str  # "stalled" | "max_sim_time" | "deadlock"
    sim_time: float
    pending_events: int
    processed_count: int
    ranks: list[RankSnapshot]

    def render_text(self) -> str:
        lines = [
            f"watchdog: run stopped ({self.reason}) at t={self.sim_time:.6f}s",
            f"  pending store: {self.pending_events} event(s), "
            f"{self.processed_count} processed",
        ]
        for r in self.ranks:
            state = "blocked" if r.alive else "finished"
            lines.append(
                f"  rank {r.rank}: {state}"
                f" sends={r.outstanding_sends} recvs={r.outstanding_recvs}"
                f" local={r.pending_local} unacked={r.unacked_packets}"
                f" inbound={r.inbound_depth} cq={r.cq_depth}"
            )
            if r.alive and r.waiting_on:
                lines.append(f"    waiting on: {r.waiting_on}")
        return "\n".join(lines)


def diagnose(
    engine: typing.Any,
    reason: str,
    procs: typing.Sequence,
    endpoints: typing.Sequence,
) -> WatchdogDiagnostic:
    """Snapshot engine + per-rank state after a guarded run gave up."""
    ranks: list[RankSnapshot] = []
    for proc, ep in zip(procs, endpoints):
        target = getattr(proc, "_target", None)
        sends, recvs, local, unacked, nics = ep.backlog()
        ranks.append(
            RankSnapshot(
                rank=ep.rank,
                alive=proc.is_alive,
                waiting_on=repr(target) if target is not None else "",
                outstanding_sends=sends,
                outstanding_recvs=recvs,
                pending_local=local,
                unacked_packets=unacked,
                inbound_depth=sum(len(nic.inbound) for nic in nics),
                cq_depth=sum(len(nic.cq) for nic in nics),
            )
        )
    return WatchdogDiagnostic(
        reason=reason,
        sim_time=engine.now,
        pending_events=engine.pending_count,
        processed_count=engine.processed_count,
        ranks=ranks,
    )
