"""NIC model: DMA engines, wire serialization, completion queues.

The defining property reproduced here is **OS-bypass autonomy**: once the
host posts a work request, the NIC moves the data on its own.  Host CPUs
learn of progress only by polling the completion queue or the inbound
packet queue -- there are no interrupts, matching the polling-mode
operation of the libraries the paper instruments.

Timing model (cut-through with port contention):

* a message of ``n`` bytes occupies the sender's TX port for
  ``n / bandwidth`` seconds, FIFO per port;
* the first byte reaches the receiver after ``latency``;
* the receiver's RX port is also a FIFO resource, so incast traffic
  serializes at the destination;
* RDMA Read adds a request latency before the *target's* TX port streams
  the data back, with no target-CPU involvement.
"""

from __future__ import annotations

import collections
import enum
import typing

from repro.netsim import channel as _ch
from repro.netsim.params import NetworkParams
from repro.sim import Engine, Event
from repro.sim.pcg64 import Pcg64

if typing.TYPE_CHECKING:
    from repro.faults.inject import FaultInjector
    from repro.netsim.fabric import Fabric

# Stream-family discriminator for per-link latency-jitter RNGs (mixed into
# the derived seed so jitter never shares a stream with the fault families
# in repro.faults.inject, which occupy 1 and 2).
_FAMILY_JITTER = 3

# Hot-path records are built C-level: a NamedTuple's generated ``__new__``
# is a Python function (one frame per record), ``tuple.__new__`` is not.
_new = tuple.__new__


class CompletionKind(enum.Enum):
    """What a completion-queue entry signifies."""

    SEND_DONE = "send_done"
    RDMA_WRITE_DONE = "rdma_write_done"
    RDMA_READ_DONE = "rdma_read_done"


class CompletionEntry(typing.NamedTuple):
    """One CQ entry, polled by the owning process."""

    kind: CompletionKind
    context: object
    nbytes: float


class InboundPacket(typing.NamedTuple):
    """A message that arrived at this NIC's RX port."""

    src_node: int
    payload: object
    nbytes: float


class TransferRecord(typing.NamedTuple):
    """Ground-truth physical transfer interval (simulator-side knowledge).

    The real system cannot observe these ("the precise times for
    NIC-initiated data transfer events is unknown to the host processor");
    the simulator records them so the derived bounds can be validated
    against the truth (see ``repro.experiments.validation``).
    """

    src: int
    dst: int
    nbytes: float
    start: float
    end: float
    kind: str  # "send" | "rdma_write" | "rdma_read"


class Nic:
    """One network port of one node."""

    def __init__(
        self,
        engine: Engine,
        params: NetworkParams,
        node: int,
        port: int = 0,
        seed: int = 0,
        injector: "FaultInjector | None" = None,
        transfer_log: "list[TransferRecord] | None" = None,
        fabric: "Fabric | None" = None,
    ) -> None:
        self.engine = engine
        self.params = params
        self.node = node
        self.port = port
        #: Fabric seed; per-link jitter streams derive from it lazily.
        self._seed = seed
        #: Per-destination jitter RNGs, keyed by (dst_node, dst_port).
        #: Seeding each directed link independently keeps jitter replayable
        #: even when sweep workers interleave traffic differently.
        self._jitter: dict[tuple[int, int], Pcg64] = {}
        #: Live fault state shared across the fabric (None = healthy).
        self._inj = injector
        #: Fabric-wide ground-truth transfer log (None = not recording).
        self._transfer_log = transfer_log
        #: FIFO availability of the TX wire.
        self.tx_busy_until = 0.0
        #: FIFO availability of the RX wire (incast serialization).
        self.rx_busy_until = 0.0
        #: Packets that have fully arrived, awaiting a host poll.
        self.inbound: "collections.deque[InboundPacket]" = collections.deque()
        #: Completion queue, awaiting a host poll.
        self.cq: "collections.deque[CompletionEntry]" = collections.deque()
        self._waiters: list[Event] = []
        #: Channel delivery: all cross-NIC effects go through the fabric's
        #: router as :class:`~repro.netsim.channel.ChannelMsg` records.
        self._channel = params.delivery == "channel"
        #: Owning fabric (routing + key allocation; channel mode only).
        self._fabric = fabric
        #: Completion contexts of in-flight RDMA verbs, keyed by token.
        #: Contexts are host-side objects (often closures); in channel mode
        #: only the token crosses the wire and the context is resolved here
        #: when the ACK / read data comes back.
        self._rdma_ctx: dict[int, object] = {}
        self._rdma_token = 0
        # Traffic counters (diagnostics / tests).
        self.bytes_sent = 0.0
        self.bytes_received = 0.0
        self.messages_sent = 0
        self.messages_received = 0

    # -- host-side waiting -------------------------------------------------
    def wait_activity(self) -> Event:
        """Event that fires at the next CQ entry or packet arrival.

        A blocked polling loop sleeps on this instead of busy-spinning the
        simulation clock.  If something is already pending the event fires
        immediately.
        """
        ev = Event(self.engine)
        if self.inbound or self.cq:
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def _kick(self) -> None:
        waiters = self._waiters
        if not waiters:
            return
        self._waiters = []
        for ev in waiters:
            # A waiter shared across rails (Endpoint.wait_any_activity) may
            # have been fired by another NIC's kick already.
            if not ev.triggered:
                ev.succeed()

    def _post_at(
        self, when: float, fn: typing.Callable[[Event], None], keys: int = 1,
    ) -> None:
        """Run ``fn`` at absolute time ``when``, or now if that has passed.

        One engine event per completion.  ``fn`` receives (and ignores)
        the event, which lets it be registered directly as a callback --
        no adapter closure per scheduled completion.  ``keys`` is
        :meth:`~repro.sim.engine.Engine.post_at`'s: ``fn`` stands for that
        many same-instant completions with adjacent keys.
        """
        engine = self.engine
        if when < engine.now:
            when = engine.now
        engine.post_at(when, None, keys).callbacks.append(fn)

    # -- timing helpers ------------------------------------------------------
    def _latency(self, dst: "Nic") -> float:
        """Per-message wire latency on the link to ``dst``.

        Jitter (when enabled) comes from a lazily created stream seeded by
        ``(seed, family, src, src_port, dst, dst_port)``: each directed
        link owns its own RNG, so the draw sequence on one link is a pure
        function of that link's traffic.  Straggler nodes see all their
        latencies scaled.
        """
        p = self.params
        if p.latency_jitter_frac <= 0.0:
            lat = p.latency
        else:
            key = (dst.node, dst.port)
            rng = self._jitter.get(key)
            if rng is None:
                rng = self._jitter[key] = Pcg64((
                    self._seed, _FAMILY_JITTER, self.node, self.port,
                    dst.node, dst.port))
            swing = p.latency_jitter_frac * (2.0 * rng.random() - 1.0)
            lat = p.latency * (1.0 + swing)
        if self._inj is not None:
            lat *= self._inj.straggler_factor(self.node)
        return lat

    def _tx_stream(self, nbytes: float) -> float:
        """Occupy this NIC's TX port; returns the TX completion time.

        Each message costs its serialization time plus the NIC's
        per-message processing overhead (the message-rate limit).  Under a
        fault plan the start is pushed past stall windows, overhead scales
        with the node's straggler factor, and serialization scales with
        any degradation window covering the start.
        """
        start = max(self.engine.now, self.tx_busy_until)
        if self._inj is not None:
            inj = self._inj
            start = inj.stall_adjust(self.node, start)
            end = (
                start
                + self.params.per_message_overhead * inj.straggler_factor(self.node)
                + self.params.wire_time(nbytes) * inj.degrade_factor(self.node, start)
            )
        else:
            end = start + self.params.per_message_overhead + self.params.wire_time(nbytes)
        self.tx_busy_until = end
        return end

    @staticmethod
    def _rx_stream(dst: "Nic", first_byte: float, nbytes: float) -> float:
        """Occupy ``dst``'s RX port; returns the full-arrival time."""
        start = max(first_byte, dst.rx_busy_until)
        inj = dst._inj
        if inj is not None:
            start = inj.stall_adjust(dst.node, start)
            end = start + dst.params.wire_time(nbytes) * inj.degrade_factor(dst.node, start)
        else:
            end = start + dst.params.wire_time(nbytes)
        dst.rx_busy_until = end
        return end

    # -- verbs -------------------------------------------------------------
    def post_send(
        self,
        dst: "Nic",
        nbytes: float,
        payload: object,
        context: object = None,
    ) -> None:
        """Two-sided send: deliver ``payload`` to ``dst``'s inbound queue.

        A ``SEND_DONE`` CQ entry appears locally once the DMA engine has
        drained the host buffer (TX completion).

        Send-channel packets are the lossy part of the fabric: under a
        fault plan a packet may be silently dropped on the wire (the TX
        port is still consumed and ``SEND_DONE`` still fires -- the sender
        NIC cannot tell), delivered twice, or delayed past later traffic.
        RDMA verbs model reliable-connection hardware and never lose data.
        """
        self._check_dst(dst)
        verdict = None
        if self._inj is not None:
            verdict = self._inj.roll(self.node, dst.node)
        tx_end = self._tx_stream(nbytes)
        self.bytes_sent += nbytes
        self.messages_sent += 1

        def local_complete(_ev: Event) -> None:
            self.cq.append(_new(
                CompletionEntry, (CompletionKind.SEND_DONE, context, nbytes)))
            self._kick()

        if self._channel:
            self._post_at(tx_end, local_complete)
            if verdict is not None and verdict.drop:
                return
            first_byte = tx_end - self.params.wire_time(nbytes) + self._latency(dst)
            self._fabric.channel_send(_ch.ChannelMsg(
                when=first_byte,
                key=self._fabric.next_channel_key(
                    self.node, self.port, dst.node, dst.port),
                kind=_ch.DELIVER,
                src_node=self.node, src_port=self.port,
                dst_node=dst.node, dst_port=dst.port,
                nbytes=nbytes, payload=payload,
                extra=(
                    tx_end,
                    verdict is not None and verdict.duplicate,
                    verdict is not None and verdict.reorder,
                ),
            ))
            return

        if verdict is not None and verdict.drop:
            # The wire ate the packet: local completion only, no arrival.
            self._post_at(tx_end, local_complete)
            return

        first_byte = tx_end - self.params.wire_time(nbytes) + self._latency(dst)
        arrival = self._rx_stream(dst, first_byte, nbytes)
        if verdict is not None and verdict.reorder:
            # Held in the switch, overtaken by packets posted after it.
            arrival += self._inj.plan.reorder_delay

        def deliver(_ev: Event) -> None:
            dst.inbound.append(_new(InboundPacket, (self.node, payload, nbytes)))
            dst.bytes_received += nbytes
            dst.messages_received += 1
            dst._kick()

        self._post_at(tx_end, local_complete)
        dst._post_at(arrival, deliver)
        if verdict is not None and verdict.duplicate:
            dst._post_at(arrival, deliver)
        if self._transfer_log is not None:
            self._record(self.node, dst.node, nbytes, tx_end, arrival, "send")

    def post_rdma_write(
        self,
        dst: "Nic",
        nbytes: float,
        context: object = None,
        notify_payload: object = None,
    ) -> None:
        """One-sided write into ``dst``'s memory; no target CPU involvement.

        The local ``RDMA_WRITE_DONE`` CQ entry appears when the data has
        been placed remotely.  If ``notify_payload`` is given, a
        zero-extra-cost notification packet (write-with-immediate) lands in
        ``dst``'s inbound queue at arrival time.
        """
        self._check_dst(dst)
        tx_end = self._tx_stream(nbytes)
        first_byte = tx_end - self.params.wire_time(nbytes) + self._latency(dst)
        self.bytes_sent += nbytes
        self.messages_sent += 1

        if self._channel:
            token = self._rdma_token
            self._rdma_token = token + 1
            self._rdma_ctx[token] = context
            self._fabric.channel_send(_ch.ChannelMsg(
                when=first_byte,
                key=self._fabric.next_channel_key(
                    self.node, self.port, dst.node, dst.port),
                kind=_ch.PLACE,
                src_node=self.node, src_port=self.port,
                dst_node=dst.node, dst_port=dst.port,
                nbytes=nbytes, payload=notify_payload,
                extra=(tx_end, token),
            ))
            return

        arrival = self._rx_stream(dst, first_byte, nbytes)

        def placed(_ev: Event) -> None:
            dst.bytes_received += nbytes
            dst.messages_received += 1
            if notify_payload is not None:
                dst.inbound.append(
                    _new(InboundPacket, (self.node, notify_payload, nbytes)))
                if dst._waiters:
                    dst._kick()
            # Reliable-connection semantics: local completion once remotely
            # placed.
            self.cq.append(_new(
                CompletionEntry,
                (CompletionKind.RDMA_WRITE_DONE, context, nbytes)))
            if self._waiters:
                self._kick()

        # Remote placement and local completion are two events at the same
        # instant with adjacent keys: one event that holds both keys.
        dst._post_at(arrival, placed, 2)
        if self._transfer_log is not None:
            self._record(self.node, dst.node, nbytes, tx_end, arrival,
                         "rdma_write")

    def post_rdma_read(
        self,
        target: "Nic",
        nbytes: float,
        context: object = None,
    ) -> None:
        """One-sided read of ``target``'s memory; serviced by its NIC alone.

        The request packet reaches the target after
        ``rdma_read_request_latency``; the target's NIC then streams the
        data back through its TX port (contending with its other sends, but
        never touching its CPU).  A local ``RDMA_READ_DONE`` CQ entry
        appears when all data has arrived.
        """
        self._check_dst(target)
        request_arrival = self.engine.now + self.params.rdma_read_request_latency

        if self._channel:
            token = self._rdma_token
            self._rdma_token = token + 1
            self._rdma_ctx[token] = context
            self._fabric.channel_send(_ch.ChannelMsg(
                when=request_arrival,
                key=self._fabric.next_channel_key(
                    self.node, self.port, target.node, target.port),
                kind=_ch.READ_REQ,
                src_node=self.node, src_port=self.port,
                dst_node=target.node, dst_port=target.port,
                nbytes=nbytes, payload=None, extra=token,
            ))
            return

        def service_read(_ev: Event) -> None:
            tx_end = target._tx_stream(nbytes)
            target.bytes_sent += nbytes
            target.messages_sent += 1
            first_byte = tx_end - target.params.wire_time(nbytes) + target._latency(self)
            arrival = Nic._rx_stream(self, first_byte, nbytes)

            def data_arrived(_ev: Event) -> None:
                self.bytes_received += nbytes
                self.messages_received += 1
                self.cq.append(_new(
                    CompletionEntry,
                    (CompletionKind.RDMA_READ_DONE, context, nbytes)))
                self._kick()

            # Data lands at the initiator, paced by its RX port.
            self._post_at(arrival, data_arrived)
            if self._transfer_log is not None:
                # The read moves data target -> initiator.
                self._record(target.node, self.node, nbytes, tx_end, arrival,
                             "rdma_read")

        self._post_at(request_arrival, service_read)

    # -- channel receiver halves -------------------------------------------
    def _channel_recv(self, msg: "_ch.ChannelMsg") -> None:
        """Execute the receiver half of one cross-NIC effect.

        Runs at ``msg.when`` on the engine that owns this NIC, keyed by the
        message's partition-invariant channel key.  Mirrors exactly what
        the direct-delivery verbs do to remote state -- RX-port
        reservation, arrival scheduling, CQ/inbound delivery -- but from
        the owning side.
        """
        kind = msg.kind
        nbytes = msg.nbytes
        if kind == _ch.DELIVER:
            tx_end, duplicate, reorder = typing.cast(tuple, msg.extra)
            arrival = Nic._rx_stream(self, msg.when, nbytes)
            if reorder:
                # Held in the switch, overtaken by packets posted after it.
                arrival += self._inj.plan.reorder_delay
            src_node = msg.src_node
            payload = msg.payload

            def deliver(_ev: Event) -> None:
                self.inbound.append(_new(InboundPacket, (src_node, payload, nbytes)))
                self.bytes_received += nbytes
                self.messages_received += 1
                self._kick()

            self._post_at(arrival, deliver)
            if duplicate:
                self._post_at(arrival, deliver)
            if self._transfer_log is not None:
                self._record(src_node, self.node, nbytes, tx_end, arrival, "send")
        elif kind == _ch.PLACE:
            tx_end, token = typing.cast(tuple, msg.extra)
            arrival = Nic._rx_stream(self, msg.when, nbytes)
            src_node = msg.src_node
            notify = msg.payload

            def remote_placed(_ev: Event) -> None:
                self.bytes_received += nbytes
                self.messages_received += 1
                if notify is not None:
                    self.inbound.append(
                        _new(InboundPacket, (src_node, notify, nbytes)))
                    self._kick()

            self._post_at(arrival, remote_placed)
            # Reliable-connection semantics: the writer completes once the
            # data is placed.  The ACK's effect time is bounded below by
            # ``msg.when + wire_time(nbytes)``, which is what lets the
            # shard coordinator fence it (see repro.sim.parallel).
            self._fabric.channel_send(_ch.ChannelMsg(
                when=arrival,
                key=self._fabric.next_channel_key(
                    self.node, self.port, msg.src_node, msg.src_port),
                kind=_ch.ACK,
                src_node=self.node, src_port=self.port,
                dst_node=msg.src_node, dst_port=msg.src_port,
                nbytes=nbytes, payload=None, extra=token,
            ))
            if self._transfer_log is not None:
                self._record(src_node, self.node, nbytes, tx_end, arrival,
                             "rdma_write")
        elif kind == _ch.ACK:
            context = self._rdma_ctx.pop(typing.cast(int, msg.extra))
            self.cq.append(_new(
                CompletionEntry,
                (CompletionKind.RDMA_WRITE_DONE, context, nbytes)))
            self._kick()
        elif kind == _ch.READ_REQ:
            tx_end = self._tx_stream(nbytes)
            self.bytes_sent += nbytes
            self.messages_sent += 1
            initiator = self._fabric.nic(msg.src_node, msg.src_port)
            first_byte = (
                tx_end - self.params.wire_time(nbytes) + self._latency(initiator)
            )
            self._fabric.channel_send(_ch.ChannelMsg(
                when=first_byte,
                key=self._fabric.next_channel_key(
                    self.node, self.port, msg.src_node, msg.src_port),
                kind=_ch.READ_DATA,
                src_node=self.node, src_port=self.port,
                dst_node=msg.src_node, dst_port=msg.src_port,
                nbytes=nbytes, payload=None, extra=(tx_end, msg.extra),
            ))
        else:  # READ_DATA
            tx_end, token = typing.cast(tuple, msg.extra)
            arrival = Nic._rx_stream(self, msg.when, nbytes)
            context = self._rdma_ctx.pop(token)

            def data_arrived(_ev: Event) -> None:
                self.bytes_received += nbytes
                self.messages_received += 1
                self.cq.append(_new(
                    CompletionEntry,
                    (CompletionKind.RDMA_READ_DONE, context, nbytes)))
                self._kick()

            self._post_at(arrival, data_arrived)
            if self._transfer_log is not None:
                self._record(msg.src_node, self.node, nbytes, tx_end, arrival,
                             "rdma_read")

    def _record(
        self, src_node: int, dst_node: int, nbytes: float, tx_end: float,
        arrival: float, kind: str,
    ) -> None:
        """Log a ground-truth transfer interval.  Callers test
        ``_transfer_log is not None`` first: most fabrics do not record."""
        start = tx_end - self.params.wire_time(nbytes) - self.params.per_message_overhead
        self._transfer_log.append(  # type: ignore[union-attr]
            _new(TransferRecord, (src_node, dst_node, nbytes, start, arrival, kind))
        )

    def _check_dst(self, dst: "Nic") -> None:
        if dst.node == self.node and dst.port == self.port:
            raise ValueError(f"node {self.node} cannot target its own NIC")
        if not self._channel and dst.engine is not self.engine:
            # Channel mode routes by address (dst may be a NicProxy owned
            # by another shard); direct mode requires one shared store.
            raise ValueError("cannot communicate across engines")

    def __repr__(self) -> str:
        return f"<Nic node={self.node} port={self.port}>"
