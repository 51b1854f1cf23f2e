"""Deterministic transport faults for the socket shard backend.

The coordinator's host-loss handling (heartbeat timeouts, EOF detection,
diagnostic snapshots) must be testable without killing real hosts.
:class:`TransportFaultPlan` describes a count-based failure -- *after N
sent frames, this worker drops / stalls / slows* -- and
:meth:`TransportFaultPlan.injector` builds the live hook a
:class:`repro.netsim.transport.FrameStream` calls before every send.

Counts, not probabilities: the same plan always fails on the same frame,
so CI asserts exact failure modes ("connection-lost at frame 12") rather
than flaky approximations.  The hook runs under the stream's send lock,
which is the point of the stall fault -- a stalled worker can't emit
heartbeats either, which is exactly what a wedged host looks like from
the coordinator.
"""

from __future__ import annotations

import dataclasses
import time

__all__ = [
    "TransportFaultInjected",
    "TransportFaultPlan",
    "TransportInjector",
    "parse_transport_fault_spec",
]


class TransportFaultInjected(RuntimeError):
    """Raised inside the worker when an injected fault fires.

    The worker session treats it like the host dying: the coordinator
    only ever observes the *symptom* (EOF or silence), same as a real
    loss.
    """


@dataclasses.dataclass(frozen=True)
class TransportFaultPlan:
    """What goes wrong on one worker's transport, and when.

    ``drop_after_frames``: hard-close the socket after that many sent
    frames (coordinator sees EOF -> "connection-lost").
    ``stall_after_frames``: sleep ``stall_s`` holding the send lock after
    that many frames (heartbeats stop too -> "heartbeat-timeout").
    ``slow_send_s``: added latency before every send (a slow host; the
    run completes, just late -- exercises timeout headroom).
    """

    drop_after_frames: "int | None" = None
    stall_after_frames: "int | None" = None
    stall_s: float = 3600.0
    slow_send_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop_after_frames", "stall_after_frames"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.stall_s <= 0.0:
            raise ValueError("stall_s must be positive")
        if self.slow_send_s < 0.0:
            raise ValueError("slow_send_s must be >= 0")

    def injector(self) -> "TransportInjector":
        return TransportInjector(self)


class TransportInjector:
    """Live per-stream state for one :class:`TransportFaultPlan`."""

    def __init__(self, plan: TransportFaultPlan) -> None:
        self.plan = plan
        self.frames = 0
        self.fired: "str | None" = None

    def before_send(self, stream) -> None:
        """Called by ``FrameStream.send`` under the send lock."""
        plan = self.plan
        if plan.slow_send_s:
            time.sleep(plan.slow_send_s)
        self.frames += 1
        if (plan.drop_after_frames is not None
                and self.frames > plan.drop_after_frames):
            self.fired = "drop"
            stream.abort()
            raise TransportFaultInjected(
                f"injected connection drop after "
                f"{plan.drop_after_frames} frame(s)")
        if (plan.stall_after_frames is not None
                and self.frames > plan.stall_after_frames):
            self.fired = "stall"
            time.sleep(plan.stall_s)
            raise TransportFaultInjected(
                f"injected {plan.stall_s:.1f}s stall after "
                f"{plan.stall_after_frames} frame(s)")


def parse_transport_fault_spec(spec: str) -> TransportFaultPlan:
    """Parse ``"drop-after=12,stall-after=30,stall=2.5,slow=0.01"``.

    Mirrors :func:`repro.faults.parse_fault_spec` so CLI surfaces
    (``repro.experiments.halo --worker-fault``, ``repro.sim.remote
    --fault``) share one compact syntax.
    """
    kwargs: "dict[str, object]" = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"bad transport fault entry {part!r} "
                             f"(expected key=value)")
        key = key.strip().lower()
        value = value.strip()
        try:
            if key == "drop-after":
                kwargs["drop_after_frames"] = int(value)
            elif key == "stall-after":
                kwargs["stall_after_frames"] = int(value)
            elif key == "stall":
                kwargs["stall_s"] = float(value)
            elif key == "slow":
                kwargs["slow_send_s"] = float(value)
            else:
                raise ValueError(
                    f"unknown transport fault key {key!r} "
                    f"(known: drop-after, stall-after, stall, slow)")
        except ValueError as exc:
            if "transport fault" in str(exc):
                raise
            raise ValueError(
                f"bad value for transport fault {key!r}: {value!r}"
            ) from None
    return TransportFaultPlan(**kwargs)
