"""The switched fabric: a full-bisection crossbar of NICs.

The paper's testbed is a switched InfiniBand network; with one process per
node, contention exists only at NIC ports (modeled in
:class:`~repro.netsim.nic.Nic`), never inside the switch.  The fabric is
therefore just the collection of NICs plus addressing, with optional
multi-rail (``nics_per_node > 1``) for the fragment-striping experiments.

With ``params.delivery == "channel"`` the fabric additionally owns the
channel machinery of :mod:`repro.netsim.channel`: per-directed-link
sequence counters (the partition-invariant event ordering), a router
(local injection, or a shard boundary), and -- when ``owned_nodes`` is a
strict subset -- lightweight :class:`NicProxy` stand-ins for the NICs
other shards own, so address lookups keep working while remote state
stays untouchable by construction.
"""

from __future__ import annotations

import typing

from repro.faults.inject import FaultInjector
from repro.netsim import channel as _ch
from repro.netsim.nic import Nic
from repro.netsim.params import NetworkParams
from repro.sim import Engine


class NicProxy:
    """Address of a NIC another shard owns.

    Carries exactly what a sender needs -- the coordinates -- and nothing
    a sender may touch: any attempt to reach port clocks, queues, or
    counters of a remote NIC fails loudly instead of corrupting state.
    """

    __slots__ = ("node", "port")

    def __init__(self, node: int, port: int) -> None:
        self.node = node
        self.port = port

    def __repr__(self) -> str:
        return f"<NicProxy node={self.node} port={self.port}>"


class Fabric:
    """All NICs of a simulated cluster (or of one shard of it)."""

    def __init__(
        self,
        engine: Engine,
        params: NetworkParams,
        num_nodes: int,
        nics_per_node: int = 1,
        seed: int = 0,
        record_transfers: bool = False,
        owned_nodes: "typing.Iterable[int] | None" = None,
        shard_of: "list[int] | None" = None,
        shard_id: int | None = None,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("need at least one node")
        if nics_per_node < 1:
            raise ValueError("need at least one NIC per node")
        if not isinstance(seed, int) or seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {seed!r}")
        self.engine = engine
        self.params = params
        self.num_nodes = num_nodes
        self.nics_per_node = nics_per_node
        #: Channel-delivery semantics (see repro.netsim.channel).
        self.channel = params.delivery == "channel"
        if owned_nodes is None:
            self.owned_nodes = list(range(num_nodes))
        else:
            if not self.channel:
                raise ValueError(
                    "owning a subset of nodes requires delivery='channel'"
                )
            self.owned_nodes = sorted(owned_nodes)
        owned = set(self.owned_nodes)
        #: Ground-truth physical transfer intervals (only populated when
        #: ``record_transfers`` -- used for bound validation).
        self.transfer_log: "list | None" = [] if record_transfers else None
        #: Live fault state for this run (None = healthy fabric).
        self.injector = (
            FaultInjector(params.faults, num_nodes)
            if params.faults is not None
            else None
        )
        #: Per-directed-link message counters (channel mode): the ordering
        #: authority that replaces the engine's global counter across the
        #: cut.  Each link's counter is touched only by the rank that owns
        #: its source NIC (sends, read requests) or its source-side
        #: receiver half (ACKs, read data), so the sequence on a link is a
        #: pure function of that link's traffic -- identical under any
        #: rank partition.
        self._link_seq: dict[int, int] = {}
        #: Channel router; replaced by a ShardRouter in sharded workers.
        self.router: "typing.Any | None" = None
        if self.channel:
            # Engine-allocated (app-band) keys must sort after every
            # channel key at equal times, under any partition.
            engine.reserve_low_keys(_ch.APP_BAND)
            if shard_of is not None:
                if shard_id is None:
                    raise ValueError("shard_of requires shard_id")
                self.router = _ch.ShardRouter(self, shard_of, shard_id)
            else:
                self.router = _ch.LocalRouter(self)
        elif shard_of is not None:
            raise ValueError("sharding requires delivery='channel'")
        # Jitter streams are derived per directed link inside each NIC from
        # (seed, src, src_port, dst, dst_port), so jittered runs replay
        # identically for a fixed seed regardless of traffic interleaving
        # or multiprocess sweep scheduling.
        self._nics: "list[list[Nic | NicProxy]]" = [
            [
                Nic(engine, params, node, port, seed=seed,
                    injector=self.injector,
                    transfer_log=self.transfer_log,
                    fabric=self)
                if node in owned
                else NicProxy(node, port)
                for port in range(nics_per_node)
            ]
            for node in range(num_nodes)
        ]

        #: Rail 0 of every node, by node: what a single-rail sender
        #: indexes per message instead of calling :meth:`nic`.
        self.rail0: "list[Nic | NicProxy]" = [rails[0] for rails in self._nics]

    def nic(self, node: int, port: int = 0) -> Nic:
        """The NIC at ``(node, port)`` (a :class:`NicProxy` if unowned)."""
        return self._nics[node][port]  # type: ignore[return-value]

    def nics_of(self, node: int) -> list[Nic]:
        """All rails of one node."""
        return list(self._nics[node])  # type: ignore[arg-type]

    # -- channel delivery --------------------------------------------------
    def next_channel_key(
        self, src_node: int, src_port: int, dst_node: int, dst_port: int
    ) -> int:
        """Allocate the next total-order key on one directed link."""
        link = _ch.link_id(
            src_node, src_port, dst_node, dst_port,
            self.num_nodes, self.nics_per_node,
        )
        seq = self._link_seq.get(link, 0)
        self._link_seq[link] = seq + 1
        return _ch.pack_key(link, seq)

    def channel_send(self, msg: "_ch.ChannelMsg") -> None:
        """Route one cross-NIC effect (local injection or shard outbox)."""
        self.router.send(msg)

    def channel_inject(self, msg: "_ch.ChannelMsg") -> None:
        """Schedule a channel message's receiver half on this engine."""
        nic = self._nics[msg.dst_node][msg.dst_port]
        ev = self.engine.post_keyed(msg.when, msg.key)
        ev.callbacks.append(  # type: ignore[union-attr]
            lambda _ev, nic=nic, msg=msg: nic._channel_recv(msg)
        )

    def total_bytes_on_wire(self) -> float:
        """Σ bytes sent by every owned NIC (diagnostics)."""
        return sum(
            nic.bytes_sent
            for rails in self._nics
            for nic in rails
            if isinstance(nic, Nic)
        )

    def __repr__(self) -> str:
        return (
            f"<Fabric {self.num_nodes} nodes x {self.nics_per_node} NICs, "
            f"{self.params.bandwidth / 1e6:.0f} MB/s>"
        )
