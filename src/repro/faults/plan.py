"""Declarative, seeded fault schedules (what goes wrong, and when).

A :class:`FaultPlan` is a frozen value object: it carries probabilities,
windows, and a seed, never RNG state.  The same plan therefore hashes to
the same experiment-cache key, replays identically across processes, and
can be threaded through :class:`~repro.netsim.params.NetworkParams`
(``faults=``) without breaking the frozen-dataclass contract.  The live
machinery that consumes a plan lives in :mod:`repro.faults.inject`.

Fault model (see docs/robustness.md):

* **Packet faults** (drop / duplicate / reorder) apply to two-sided
  *send-channel* packets only -- eager data and protocol control packets.
  RDMA verbs model InfiniBand reliable-connection hardware, which
  retransmits below the verbs interface, so they see *timing* faults
  (degradation, stalls, stragglers) but never lose data.
* **Link degradation** multiplies serialization time on a node's ports
  during a window; **NIC stalls** freeze a node's ports for an interval;
  **stragglers** scale a node's per-message costs for the whole run.
* **Instrumentation loss** drops XFER event stamps with probability
  ``event_drop_prob`` and/or bounds the event queue to a ring of
  ``ring_capacity`` slots -- both drive the paper's Case 3 bounds.
"""

from __future__ import annotations

import dataclasses
import typing


@dataclasses.dataclass(frozen=True)
class LinkDegradation:
    """Bandwidth degradation window on one node's ports.

    While ``start <= t < end``, serialization time on node ``node`` is
    multiplied by ``factor`` (>= 1.0; 4.0 means the link runs at 1/4
    speed).
    """

    node: int
    start: float
    end: float
    factor: float

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError(f"node must be non-negative, got {self.node}")
        if not 0.0 <= self.start <= self.end:
            raise ValueError(f"bad window [{self.start}, {self.end})")
        if self.factor < 1.0:
            raise ValueError(f"degradation factor must be >= 1.0, got {self.factor}")


@dataclasses.dataclass(frozen=True)
class NicStall:
    """A pause window on one node's ports (firmware hiccup, PFC storm).

    Work that would start inside ``[start, end)`` is pushed to ``end``.
    """

    node: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError(f"node must be non-negative, got {self.node}")
        if not 0.0 <= self.start <= self.end:
            raise ValueError(f"bad window [{self.start}, {self.end})")


@dataclasses.dataclass(frozen=True)
class ResilienceParams:
    """Ack/retransmission tuning for the reliable send channel.

    The sender arms a retransmit timer per unacked packet: attempt ``k``
    (0-based) fires after ``ack_timeout * backoff**k``.  After
    ``max_retries`` retransmissions the packet is abandoned and the
    endpoint's ``retries_exhausted`` counter is bumped -- the operation
    then never completes, which is the watchdog's job to report.
    """

    ack_timeout: float = 100.0e-6
    backoff: float = 2.0
    max_retries: int = 8

    def __post_init__(self) -> None:
        if self.ack_timeout <= 0.0:
            raise ValueError(f"ack_timeout must be positive, got {self.ack_timeout}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1.0, got {self.backoff}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """Everything that goes wrong in one run, deterministically seeded."""

    #: Master seed; every per-link / per-rank stream derives from it.
    seed: int = 0
    #: Probability a send-channel packet is silently dropped on the wire.
    drop_prob: float = 0.0
    #: Probability a send-channel packet is delivered twice.
    dup_prob: float = 0.0
    #: Probability a send-channel packet is delayed by ``reorder_delay``
    #: (overtaking packets posted after it).
    reorder_prob: float = 0.0
    #: Extra delay applied to reordered packets (seconds).
    reorder_delay: float = 50.0e-6
    #: Bandwidth-degradation windows, per node.
    degradations: tuple[LinkDegradation, ...] = ()
    #: NIC stall windows, per node.
    stalls: tuple[NicStall, ...] = ()
    #: ``(rank, factor)`` pairs: node ``rank``'s per-message overhead and
    #: latency are multiplied by ``factor`` for the whole run.
    stragglers: tuple[tuple[int, float], ...] = ()
    #: Probability an XFER_BEGIN/XFER_END stamp is lost (instrumentation
    #: loss -- drives Case 3 bounds).
    event_drop_prob: float = 0.0
    #: When > 0, replace the drain-mode event queue with a ring of this
    #: many slots; overflow overwrites the oldest stamps (also Case 3).
    ring_capacity: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {self.seed!r}")
        for name in ("drop_prob", "dup_prob", "reorder_prob", "event_drop_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.reorder_delay < 0.0:
            raise ValueError(f"reorder_delay must be non-negative, got {self.reorder_delay}")
        if self.ring_capacity < 0:
            raise ValueError(f"ring_capacity must be >= 0, got {self.ring_capacity}")
        for rank, factor in self.stragglers:
            if rank < 0:
                raise ValueError(f"straggler rank must be non-negative, got {rank}")
            if factor < 1.0:
                raise ValueError(f"straggler factor must be >= 1.0, got {factor}")

    def validate(self) -> None:
        """Explicit re-validation hook (``__post_init__`` already ran)."""
        # Frozen dataclass: construction validated everything.

    # -- derived -----------------------------------------------------------
    @property
    def has_packet_faults(self) -> bool:
        """True when any send-channel packet can be lost/duped/delayed."""
        return self.drop_prob > 0.0 or self.dup_prob > 0.0 or self.reorder_prob > 0.0

    @property
    def has_timing_faults(self) -> bool:
        return bool(self.degradations or self.stalls or self.stragglers)

    @property
    def degrades_instrumentation(self) -> bool:
        return self.event_drop_prob > 0.0 or self.ring_capacity > 0


_SPEC_HELP = (
    "drop=P, dup=P, reorder=P, reorder_delay=SECONDS, events=P, ring=N, "
    "degrade=NODE:START:END:FACTOR, stall=NODE:START:END, "
    "straggler=RANK:FACTOR (degrade/stall/straggler may repeat)"
)


def parse_fault_spec(spec: str, seed: int = 0) -> FaultPlan:
    """Build a :class:`FaultPlan` from a compact CLI string.

    Example::

        drop=0.05,dup=0.01,reorder=0.02,events=0.1,ring=512,straggler=0:2.5
    """
    kwargs: dict[str, typing.Any] = {"seed": seed}
    degradations: list[LinkDegradation] = []
    stalls: list[NicStall] = []
    stragglers: list[tuple[int, float]] = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"bad fault spec item {item!r}; expected key=value ({_SPEC_HELP})")
        key, _, value = item.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key == "drop":
                kwargs["drop_prob"] = float(value)
            elif key == "dup":
                kwargs["dup_prob"] = float(value)
            elif key == "reorder":
                kwargs["reorder_prob"] = float(value)
            elif key == "reorder_delay":
                kwargs["reorder_delay"] = float(value)
            elif key == "events":
                kwargs["event_drop_prob"] = float(value)
            elif key == "ring":
                kwargs["ring_capacity"] = int(value)
            elif key == "degrade":
                node, start, end, factor = value.split(":")
                degradations.append(
                    LinkDegradation(int(node), float(start), float(end), float(factor))
                )
            elif key == "stall":
                node, start, end = value.split(":")
                stalls.append(NicStall(int(node), float(start), float(end)))
            elif key == "straggler":
                rank, factor = value.split(":")
                stragglers.append((int(rank), float(factor)))
            else:
                raise ValueError(f"unknown fault spec key {key!r} ({_SPEC_HELP})")
        except ValueError:
            raise
        except Exception as exc:  # malformed colon lists
            raise ValueError(f"bad fault spec item {item!r}: {exc}") from exc
    return FaultPlan(
        degradations=tuple(degradations),
        stalls=tuple(stalls),
        stragglers=tuple(stragglers),
        **kwargs,
    )


def arm_faults(
    faults: "str | FaultPlan | None", seed: int = 0, config: typing.Any = None,
) -> "tuple[typing.Any, typing.Any, typing.Any]":
    """The one recipe for a faulted run: ``(params, config, watchdog)``.

    ``faults`` is a :func:`parse_fault_spec` string (parsed with ``seed``)
    or a ready plan.  The result is what ``run_app`` takes: the
    ``NetworkParams`` carrying the plan; ``config`` with the reliable
    transport armed when the plan has packet faults and the library has
    one (a lossy fabric without retransmission cannot complete -- an
    ARMCI job under drops ends in the watchdog's partial report); and the
    watchdog every faulted run carries, so a wedged job terminates with a
    diagnostic instead of hanging.  ``faults=None`` arms nothing:
    ``(None, config, None)``.
    """
    if not faults:
        return None, config, None
    from repro.faults.watchdog import WatchdogConfig
    from repro.netsim.params import NetworkParams

    plan = parse_fault_spec(faults, seed=seed) if isinstance(faults, str) else faults
    has_transport = hasattr(config, "resilience")
    if plan.has_packet_faults and has_transport and config.resilience is None:
        config = dataclasses.replace(config, resilience=ResilienceParams())
    watchdog = WatchdogConfig(stall_sim_time=0.05, max_sim_time=60.0)
    return NetworkParams(faults=plan), config, watchdog
