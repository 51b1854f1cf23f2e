"""Cost-model parameters for the simulated interconnect and host.

Defaults approximate the paper's platform: dual 2.4 GHz Xeon nodes on a
switched 8 Gbit/s InfiniBand fabric (Mellanox MT23108 on PCI-X).  The
absolute values matter less than their ratios -- see DESIGN.md Sec. 6 --
but they are chosen so that microbenchmark transfer times land in the
ranges the paper plots (tens of microseconds for 10 KB, ~1.5 ms for 1 MB).
"""

from __future__ import annotations

import dataclasses

from repro.faults.plan import FaultPlan


@dataclasses.dataclass(frozen=True)
class NetworkParams:
    """Interconnect + host-side cost model.

    All times in seconds, sizes in bytes, rates in bytes/second.
    """

    #: One-way wire/switch latency per message (small-message latency).
    latency: float = 6.0e-6
    #: Sustained NIC-to-NIC bandwidth (PCI-X-limited, ~700 MB/s).
    bandwidth: float = 700.0e6
    #: Per-message NIC processing overhead on the TX port (descriptor
    #: fetch, WQE processing -- the message-rate limit).  This is what
    #: makes packing many small strided segments worthwhile.
    per_message_overhead: float = 0.7e-6
    #: Extra one-way latency for an RDMA Read request (the read round trip
    #: starts with a request packet serviced by the target NIC).
    rdma_read_request_latency: float = 3.0e-6
    #: Size of protocol control packets (RTS/CTS/ACK/FIN) on the wire.
    control_packet_size: float = 64.0
    #: Host memcpy bandwidth (eager bounce-buffer copies).
    host_copy_bandwidth: float = 2.0e9
    #: Fixed host memcpy cost (cache warmup, call overhead).
    host_copy_latency: float = 0.3e-6
    #: CPU cost to post one work request (descriptor build + doorbell).
    post_cost: float = 0.4e-6
    #: CPU cost of one completion-queue / inbound-queue poll.
    poll_cost: float = 0.15e-6
    #: Fixed cost to pin (register) a memory region.
    pin_base_cost: float = 25.0e-6
    #: Per-byte cost to pin a memory region (page-table walks).
    pin_byte_cost: float = 2.5e-10  # 0.25 us per MB... ~256 us for 1 GiB
    #: Relative uniform jitter on per-message latency (0 = deterministic
    #: wire; 0.2 = +/-20%).  Drawn from the fabric's seeded RNG, so runs
    #: remain reproducible.  Used to check that the bounding algorithm's
    #: invariants are not artifacts of a perfectly regular network.
    latency_jitter_frac: float = 0.0
    #: Cross-NIC delivery semantics: ``"direct"`` lets a sender reserve the
    #: receiver's RX port at post time (the classic sequential model);
    #: ``"channel"`` routes every cross-NIC effect through an explicit
    #: timestamped message so a fabric can be split across shard worker
    #: processes (see :mod:`repro.netsim.channel` and
    #: :mod:`repro.sim.parallel`).  Channel runs are deterministic in
    #: themselves but are *not* bit-identical to direct runs; sharded runs
    #: are bit-identical to single-process channel runs.
    delivery: str = "direct"
    #: Fault-injection schedule (see :mod:`repro.faults`).  ``None`` (the
    #: default) keeps every code path bit-identical to a fault-free build;
    #: a :class:`~repro.faults.plan.FaultPlan` arms drop/dup/reorder,
    #: degradation windows, NIC stalls, stragglers, and instrumentation
    #: loss, all deterministically seeded.
    faults: FaultPlan | None = None

    def wire_time(self, nbytes: float) -> float:
        """Serialization time of ``nbytes`` on one NIC port."""
        return nbytes / self.bandwidth

    def transfer_time(self, nbytes: float) -> float:
        """End-to-end time of a single message: latency + serialization."""
        return self.latency + self.wire_time(nbytes)

    def copy_time(self, nbytes: float) -> float:
        """Host memcpy cost for ``nbytes``."""
        return self.host_copy_latency + nbytes / self.host_copy_bandwidth

    def pin_time(self, nbytes: float) -> float:
        """Cost of registering ``nbytes`` of memory with the NIC."""
        return self.pin_base_cost + nbytes * self.pin_byte_cost

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            if field.name in ("delivery", "faults"):
                continue
            value = getattr(self, field.name)
            if value < 0:
                raise ValueError(f"{field.name} must be non-negative, got {value}")
        if self.delivery not in ("direct", "channel"):
            raise ValueError(
                f"delivery must be 'direct' or 'channel', got {self.delivery!r}"
            )
        if self.bandwidth <= 0 or self.host_copy_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if self.latency_jitter_frac >= 1.0:
            raise ValueError("latency jitter must stay below 100%")
