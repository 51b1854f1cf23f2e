"""Live fault machinery: per-link RNG streams + fault verdicts + counters.

One :class:`FaultInjector` is built per :class:`~repro.netsim.fabric.Fabric`
when ``NetworkParams.faults`` is set.  Determinism contract:

* every directed link ``(src_node, dst_node)`` owns an independent RNG
  stream seeded from ``(plan.seed, src, dst)``, so the fault pattern on
  one link never depends on traffic elsewhere (and multiprocess sweeps
  replay identically regardless of worker scheduling);
* :meth:`roll` draws exactly three uniforms per packet whatever the
  verdict, so adding or removing one fault class never perturbs the
  stream consumed by the others.
"""

from __future__ import annotations

import typing

from repro.faults.plan import FaultPlan
from repro.sim.pcg64 import Pcg64

# Stream-family discriminators mixed into derived seeds so link rolls,
# stamp loss, and any future family never share an RNG stream.
_FAMILY_LINK = 1
_FAMILY_STAMP = 2


class PacketVerdict(typing.NamedTuple):
    """What happens to one send-channel packet."""

    drop: bool
    duplicate: bool
    reorder: bool


_CLEAN = PacketVerdict(False, False, False)


class FaultInjector:
    """Per-fabric fault state derived from one :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan, num_nodes: int) -> None:
        self.plan = plan
        self.num_nodes = num_nodes
        self._links: dict[tuple[int, int], Pcg64] = {}
        self._straggler = {rank: factor for rank, factor in plan.stragglers}
        # Per-node windows, sorted by start (lookups scan; plans are tiny).
        self._degradations: dict[int, list] = {}
        for window in plan.degradations:
            self._degradations.setdefault(window.node, []).append(window)
        self._stalls: dict[int, list] = {}
        for window in plan.stalls:
            self._stalls.setdefault(window.node, []).append(window)
        # Counters (surfaced through repro.metrics when a registry is given).
        self.packets_dropped = 0
        self.packets_duplicated = 0
        self.packets_reordered = 0

    # -- packet verdicts ---------------------------------------------------
    def _link_rng(self, src: int, dst: int) -> Pcg64:
        rng = self._links.get((src, dst))
        if rng is None:
            rng = self._links[(src, dst)] = Pcg64(
                (self.plan.seed, _FAMILY_LINK, src, dst))
        return rng

    def roll(self, src: int, dst: int) -> PacketVerdict:
        """Fault verdict for one send-channel packet on link ``src -> dst``.

        Always draws three uniforms (drop, dup, reorder) to keep per-link
        streams stable across fault-class mixes.  Drop wins over duplicate
        over reorder when several fire on the same packet.
        """
        plan = self.plan
        if not plan.has_packet_faults:
            return _CLEAN
        rng = self._link_rng(src, dst)
        u_drop = rng.random()
        u_dup = rng.random()
        u_reorder = rng.random()
        if u_drop < plan.drop_prob:
            self.packets_dropped += 1
            return PacketVerdict(True, False, False)
        if u_dup < plan.dup_prob:
            self.packets_duplicated += 1
            return PacketVerdict(False, True, False)
        if u_reorder < plan.reorder_prob:
            self.packets_reordered += 1
            return PacketVerdict(False, False, True)
        return _CLEAN

    # -- timing faults -----------------------------------------------------
    def straggler_factor(self, node: int) -> float:
        """Per-message cost multiplier for ``node`` (1.0 = healthy)."""
        return self._straggler.get(node, 1.0)

    def degrade_factor(self, node: int, when: float) -> float:
        """Serialization-time multiplier on ``node``'s ports at ``when``."""
        windows = self._degradations.get(node)
        if not windows:
            return 1.0
        factor = 1.0
        for w in windows:
            if w.start <= when < w.end:
                factor *= w.factor
        return factor

    def stall_adjust(self, node: int, start: float) -> float:
        """Push ``start`` past any stall window covering it on ``node``."""
        windows = self._stalls.get(node)
        if not windows:
            return start
        # Windows may chain (end of one inside the next); iterate to fixpoint.
        moved = True
        while moved:
            moved = False
            for w in windows:
                if w.start <= start < w.end:
                    start = w.end
                    moved = True
        return start

    # -- instrumentation loss ----------------------------------------------
    def stamp_rng(self, rank: int) -> Pcg64:
        """Independent stream for rank-local event-stamp loss."""
        return Pcg64((self.plan.seed, _FAMILY_STAMP, rank))

    def stamp_loss(self, rank: int) -> "StampLoss | None":
        """Rank-local stamp-loss state, or None when the plan has none."""
        if self.plan.event_drop_prob <= 0.0:
            return None
        return StampLoss(self.stamp_rng(rank), self.plan.event_drop_prob)

    # -- observability -----------------------------------------------------
    def attach_metrics(self, registry: typing.Any, labels: dict | None = None) -> None:
        """Register fault counters on a :class:`~repro.metrics.MetricsRegistry`."""
        labels = labels or {}
        registry.sampled_counter(
            "repro_faults_packets_dropped",
            lambda: self.packets_dropped,
            help="Send-channel packets silently dropped by fault injection",
            labels=labels,
        )
        registry.sampled_counter(
            "repro_faults_packets_duplicated",
            lambda: self.packets_duplicated,
            help="Send-channel packets delivered twice by fault injection",
            labels=labels,
        )
        registry.sampled_counter(
            "repro_faults_packets_reordered",
            lambda: self.packets_reordered,
            help="Send-channel packets delayed past later traffic",
            labels=labels,
        )


class StampLoss:
    """Probabilistic loss of instrumentation event stamps on one rank.

    Models a lossy measurement layer (overflowing trace buffer, sampled
    PMU hooks): each XFER_BEGIN / XFER_END stamp is independently dropped
    with the plan's ``event_drop_prob``.  Losing one endpoint of a
    transfer leaves the other unmatched, which the processor resolves
    under the paper's Case 3 bounds (min = 0, max = xfer_time).  One draw
    per stamp from a rank-local stream keeps loss patterns independent of
    simulation interleaving.
    """

    def __init__(self, rng: Pcg64, prob: float) -> None:
        self._rng = rng
        self.prob = prob
        #: Stamps dropped, by endpoint kind (diagnostics / reconciliation).
        self.begin_dropped = 0
        self.end_dropped = 0

    @property
    def dropped(self) -> int:
        return self.begin_dropped + self.end_dropped

    def drop_begin(self) -> bool:
        if self._rng.random() < self.prob:
            self.begin_dropped += 1
            return True
        return False

    def drop_end(self) -> bool:
        if self._rng.random() < self.prob:
            self.end_dropped += 1
            return True
        return False
