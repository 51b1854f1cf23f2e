"""Per-rank library endpoint: state + the polling progress engine.

The endpoint owns everything one MPI process's library layer holds: the
matching queues, in-flight protocol states, the registration cache, the
monitor, and -- critically -- :meth:`Endpoint.poll`, the **polling
progress engine**.  Protocol state advances *only* inside ``poll``, and
``poll`` runs only while the application executes library code.  This is
the paper's explanatory mechanism: "Polling progress in these libraries
requires that communicating processes make frequent calls that invoke the
progress engine to ensure continuous transfer progress."

CPU time only this rank can observe (copies, descriptor builds, polls,
pinning) is charged to the rank's :class:`~repro.sim.engine.RankClock`
with :meth:`Endpoint.spend`; the rank touches the event queue only when
it touches the network: :meth:`Endpoint.sync` catches the engine up
before every read of a NIC queue, every post to a NIC and every sleep.
Methods that may have to wait for that are generator coroutines.
"""

from __future__ import annotations

import sys
import typing

from repro.core.monitor import Monitor, NullMonitor
from repro.mpisim.config import MpiConfig
from repro.mpisim.matching import MatchingEngine, UnexpectedMsg
from repro.mpisim.packets import (
    AckPacket,
    CtsPacket,
    EagerPacket,
    FinPacket,
    ReliableEnvelope,
    RtsPacket,
    is_control_packet,
)
from repro.mpisim.protocols import make_protocol
from repro.mpisim.request import Request
from repro.mpisim.status import ANY_SOURCE, ANY_TAG, MpiError, Status
from repro.netsim.fabric import Fabric
from repro.netsim.memory import RegistrationCache
from repro.netsim.nic import Nic
from repro.sim import Engine
from repro.sim.engine import ClockOwner, RankClock
from repro.sim.events import Event, Timeout

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.mpisim.protocols.base import RendezvousProtocol

MonitorLike = typing.Union[Monitor, NullMonitor]

_new = tuple.__new__  # builds hot-path records C-level, as in netsim.nic


class SendState:
    """Sender-side record of one in-flight rendezvous message."""

    __slots__ = (
        "seq",
        "req",
        "dest",
        "tag",
        "nbytes",
        "data",
        "bufkey",
        "xfer_id",
        "frags_pending",
        "protocol",
    )

    def __init__(
        self,
        seq: int,
        req: Request,
        dest: int,
        tag: int,
        nbytes: float,
        data: object,
        bufkey: object,
        protocol: "RendezvousProtocol",
    ) -> None:
        self.seq = seq
        self.req = req
        self.dest = dest
        self.tag = tag
        self.nbytes = nbytes
        self.data = data
        self.bufkey = bufkey
        self.xfer_id: int = -1
        self.frags_pending = 0
        self.protocol = protocol


class RecvState:
    """Receiver-side record of one in-flight rendezvous message."""

    __slots__ = ("seq", "req", "src", "tag", "nbytes", "remaining", "xfer_id", "protocol")

    def __init__(
        self,
        seq: int,
        req: Request,
        src: int,
        tag: int,
        nbytes: float,
        protocol: "RendezvousProtocol",
    ) -> None:
        self.seq = seq
        self.req = req
        self.src = src
        self.tag = tag
        self.nbytes = nbytes
        self.remaining = 0.0
        self.xfer_id: int = -1
        self.protocol = protocol


class _UnackedSend:
    """Sender-side record of one reliable-channel packet awaiting its ack."""

    __slots__ = ("tseq", "dest", "nbytes", "env", "attempt", "timer")

    def __init__(self, tseq: int, dest: int, nbytes: float, env: ReliableEnvelope) -> None:
        self.tseq = tseq
        self.dest = dest
        self.nbytes = nbytes
        self.env = env
        #: Retransmissions performed so far (attempt k backs off by backoff**k).
        self.attempt = 0
        self.timer: Timeout | None = None


class SendDone:
    """CQ context of one send-channel transfer (an eager message, a
    pipelined fragment 0): stamps its ``XFER_END`` when the local completion
    is drained; until then Finalize knows a completion is pending."""

    __slots__ = ("ep", "xid", "nbytes")

    def __init__(self, ep: "Endpoint", xid: int, nbytes: float) -> None:
        ep.pending_local_completions += 1
        self.ep = ep
        self.xid = xid
        self.nbytes = nbytes

    def __call__(self) -> None:
        ep = self.ep
        ep.pending_local_completions -= 1
        ep.monitor.xfer_end(self.xid, self.nbytes)


class Endpoint(ClockOwner):
    """One rank's communication-library instance."""

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        rank: int,
        size: int,
        config: MpiConfig,
        monitor: MonitorLike,
        clock: RankClock,
    ) -> None:
        self.engine = engine
        #: This rank's CPU clock, shared with its monitor and context.
        self.clock = clock
        self.fabric = fabric
        self.params = fabric.params
        self.rank = rank
        self.size = size
        self.config = config
        self.monitor = monitor
        self.nics: list[Nic] = fabric.nics_of(rank)[: config.nics_per_node]
        #: Every node's rail-0 NIC, by rank (the fabric's list, shared).
        self.peers: list[Nic] = fabric.rail0
        self.matching = MatchingEngine()
        self.regcache = RegistrationCache(
            self.params,
            max_entries=config.regcache_entries if config.leave_pinned else 0,
        )
        self.sends: dict[int, SendState] = {}
        self.recvs: dict[tuple[int, int], RecvState] = {}
        self._seq = 0
        self._rail_rr = 0
        #: Collective invocation counter (drives collective tag agreement).
        self.coll_seq = 0
        #: Local completions (CQ entries with stamping contexts) not yet
        #: drained; MPI_Finalize polls until this reaches zero.
        self.pending_local_completions = 0
        #: Reliable send channel (None = raw sends, the bit-identical path).
        self.resilience = config.resilience
        #: Per-sender transport sequence counter for reliable envelopes.
        self._tseq = 0
        #: tseq -> in-flight reliable packet (the watchdog dumps its size).
        self._unacked: dict[int, _UnackedSend] = {}
        #: Per-peer tseq sets already delivered (duplicate suppression).
        self._seen_tseq: dict[int, set[int]] = {}
        # Resilience counters (surfaced through repro.metrics).
        self.packets_retransmitted = 0
        self.duplicates_suppressed = 0
        self.retries_exhausted = 0
        self.acks_sent = 0
        self.protocol: "RendezvousProtocol" = make_protocol(config.rndv_mode)

    # -- small helpers -------------------------------------------------------
    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def nic_for(self, rank: int, rail: int = 0) -> Nic:
        return self.fabric.nic(rank, rail)

    def next_rail(self) -> Nic:
        """Round-robin rail selection for fragment striping."""
        nic = self.nics[self._rail_rr % len(self.nics)]
        self._rail_rr += 1
        return nic

    @property
    def control_size(self) -> float:
        return self.params.control_packet_size

    # ======================================================================
    # Progress engine
    # ======================================================================
    def poll(self) -> typing.Generator:
        """Drain all pending CQ entries and inbound packets (rails in order,
        CQ before inbound); returns True if anything was processed.

        Every drained item costs one ``poll_cost`` of CPU; an empty poll
        costs one ``poll_cost`` (the check itself).  Handlers may consume
        further CPU (copies, pinning, posting).  They run on the rank
        clock; the engine is caught up before the queues are looked at
        (again), so each check sees what had arrived by then.
        """
        clock = self.clock
        poll_cost = self.params.poll_cost
        advance_to = self.engine.advance_to
        nics = self.nics
        clock.now = clock.now + poll_cost
        progressed = False
        while True:
            t = advance_to(clock.now)
            if t is not None:
                yield t
            for nic in nics:
                if nic.cq:
                    clock.now = clock.now + poll_cost
                    action = nic.cq.popleft().context
                    result = action() if action is not None else None
                    break
                if nic.inbound:
                    clock.now = clock.now + poll_cost
                    result = self._dispatch_packet(nic.inbound.popleft().payload)
                    break
            else:
                return progressed
            progressed = True
            if result is not None:
                yield from result

    # -- reliable send channel ---------------------------------------------
    def post_send_channel(
        self, dest: int, nbytes: float, payload: object, context: object = None
    ) -> None:
        """Post one send-channel packet, reliably when resilience is armed.

        Without :class:`~repro.faults.plan.ResilienceParams` this is a raw
        ``post_send`` (byte-identical to the pre-resilience library).  With
        it, the payload travels inside a :class:`ReliableEnvelope` and a
        retransmit timer backs it until the receiver's ack arrives.
        Retransmissions are transport-level: they fire from timer context
        with no CPU charge and no CQ context, exactly like a NIC firmware
        retry invisible to the host.

        The caller has synced: the NIC reads the engine's time, and the
        retransmit timer is armed relative to it.
        """
        nic = self.nics[0]
        dst = self.peers[dest]
        if self.resilience is None:
            nic.post_send(dst, nbytes, payload, context=context)
            return
        self._tseq += 1
        env = ReliableEnvelope(self._tseq, self.rank, payload)
        state = _UnackedSend(self._tseq, dest, nbytes, env)
        self._unacked[state.tseq] = state
        nic.post_send(dst, nbytes, env, context=context)
        self._arm_retransmit(state)

    def _arm_retransmit(self, state: _UnackedSend) -> None:
        r = self.resilience
        assert r is not None
        timer = Timeout(self.engine, r.ack_timeout * (r.backoff ** state.attempt))
        state.timer = timer

        def on_timer(_ev: Event) -> None:
            if state.tseq not in self._unacked:
                return  # acked between firing and processing
            if state.attempt >= r.max_retries:
                # Retry budget exhausted: abandon the packet.  The operation
                # it belonged to will never complete -- reporting that is
                # the watchdog's job, not the transport's.
                del self._unacked[state.tseq]
                self.retries_exhausted += 1
                self._kick_ranks()
                return
            state.attempt += 1
            self.packets_retransmitted += 1
            self.nics[0].post_send(
                self.peers[state.dest], state.nbytes, state.env, context=None
            )
            self._arm_retransmit(state)

        timer.callbacks.append(on_timer)  # type: ignore[union-attr]

    def _on_ack(self, pkt: AckPacket) -> None:
        state = self._unacked.pop(pkt.tseq, None)
        if state is None:
            return  # duplicate ack, or ack of an abandoned packet
        if state.timer is not None:
            state.timer.cancel()

    def _kick_ranks(self) -> None:
        """Wake any blocked poll loop so it re-evaluates its predicate.

        Used when transport state changes without NIC activity on this
        endpoint (retry budget exhausted): a Finalize blocked on
        ``quiescent`` must notice the abandoned packet.
        """
        for nic in self.nics:
            nic._kick()

    def attach_metrics(self, registry: typing.Any, labels: dict | None = None) -> None:
        """Register resilience counters on a MetricsRegistry."""
        labels = labels or {}
        registry.sampled_counter(
            "repro_mpi_packets_retransmitted",
            lambda: self.packets_retransmitted,
            help="Reliable-channel packets retransmitted after ack timeout",
            labels=labels,
        )
        registry.sampled_counter(
            "repro_mpi_duplicates_suppressed",
            lambda: self.duplicates_suppressed,
            help="Reliable-channel envelopes dropped as already delivered",
            labels=labels,
        )
        registry.sampled_counter(
            "repro_mpi_retries_exhausted",
            lambda: self.retries_exhausted,
            help="Reliable-channel packets abandoned after the retry budget",
            labels=labels,
        )
        registry.sampled_counter(
            "repro_mpi_acks_sent",
            lambda: self.acks_sent,
            help="Transport acks posted for received reliable envelopes",
            labels=labels,
        )

    def _dispatch_packet(self, payload: object) -> "typing.Generator | None":
        """Route one inbound payload to its handler.

        Like a CQ context, a handler that may have to wait (it posts to a
        NIC, so it syncs) is a generator for the progress engine to
        ``yield from``; one that only spends CPU and stamps returns None.
        """
        if isinstance(payload, EagerPacket):
            self._on_eager(payload)
            return None
        if isinstance(payload, ReliableEnvelope):
            return self._on_reliable(payload)
        if isinstance(payload, AckPacket):
            self._on_ack(payload)
            return None
        if isinstance(payload, RtsPacket):
            return self._on_rts(payload)
        if isinstance(payload, CtsPacket):
            st = self.sends.get(payload.seq)
            if st is None:
                raise MpiError(f"CTS for unknown send seq {payload.seq}")
            return st.protocol.on_cts(self, st)
        if isinstance(payload, FinPacket):
            if payload.to_sender:
                st = self.sends.pop(payload.seq, None)
                if st is None:
                    raise MpiError(f"FIN for unknown send seq {payload.seq}")
                return st.protocol.on_fin_to_sender(self, st)
            rst = self.recvs.pop((payload.src, payload.seq), None)
            if rst is None:
                raise MpiError(f"FIN for unknown recv {payload.src}/{payload.seq}")
            return rst.protocol.on_fin_to_receiver(self, rst, payload.data)
        raise MpiError(f"unknown packet payload {payload!r}")

    def _on_reliable(self, env: ReliableEnvelope) -> typing.Generator:
        # Ack unconditionally -- the previous ack may have been lost --
        # then suppress duplicates before the protocol layer sees them.
        self.spend(self.params.post_cost)
        yield from self.sync()
        self.acks_sent += 1
        self.nics[0].post_send(
            self.peers[env.src],
            self.control_size,
            AckPacket(env.tseq, self.rank),
            context=None,
        )
        seen = self._seen_tseq.setdefault(env.src, set())
        if env.tseq in seen:
            self.duplicates_suppressed += 1
            return
        seen.add(env.tseq)
        result = self._dispatch_packet(env.payload)
        if result is not None:
            yield from result

    # -- arrival handlers ------------------------------------------------------
    def _on_eager(self, pkt: EagerPacket) -> None:
        req = self.matching.match_arrival(pkt.src, pkt.tag, pkt.ctx)
        if req is None:
            self.matching.add_unexpected(
                _new(UnexpectedMsg, ("eager", pkt.seq, pkt.src, pkt.tag,
                                     pkt.nbytes, pkt.data, 0.0, pkt.ctx))
            )
            return
        self._deliver_eager(req, pkt.src, pkt.tag, pkt.nbytes, pkt.data)

    def _deliver_eager(
        self, req: Request, src: int, tag: int, nbytes: float, data: object
    ) -> None:
        """Copy an eager message out of library buffers into the user buffer.

        The receiver never observed the initiation ("the initiation of the
        send is transparent to the receiver"), so this stamps an END-only
        event -- bounding case 3.  Rank-to-self messages moved no network
        bytes and stamp nothing.
        """
        clock = self.clock
        clock.now = clock.now + self.params.copy_time(nbytes)
        if src != self.rank:
            self.monitor.xfer_end_only(nbytes)
        req.complete(_new(Status, (src, tag, nbytes)), data)

    def _on_rts(self, pkt: RtsPacket) -> "typing.Generator | None":
        req = self.matching.match_arrival(pkt.src, pkt.tag, pkt.ctx)
        if req is None:
            self.matching.add_unexpected(
                _new(UnexpectedMsg, ("rts", pkt.seq, pkt.src, pkt.tag,
                                     pkt.nbytes, pkt.frag_data,
                                     pkt.frag_nbytes, pkt.ctx))
            )
            return None
        return self._start_rendezvous_recv(
            req, pkt.seq, pkt.src, pkt.tag, pkt.nbytes, pkt.frag_nbytes, pkt.frag_data
        )

    def _start_rendezvous_recv(
        self,
        req: Request,
        seq: int,
        src: int,
        tag: int,
        nbytes: float,
        frag_nbytes: float,
        frag_data: object,
    ) -> typing.Generator:
        rst = RecvState(seq, req, src, tag, nbytes, self.protocol)
        self.recvs[(src, seq)] = rst
        return rst.protocol.start_recv(self, rst, frag_nbytes, frag_data)

    # ======================================================================
    # Point-to-point internals (no CALL_ENTER/EXIT stamping -- the Comm
    # wrapper owns call demarcation; collectives reuse these directly)
    # ======================================================================
    def isend(
        self,
        dest: int,
        tag: int,
        nbytes: float,
        data: object = None,
        bufkey: object = None,
        context: int = 0,
    ) -> typing.Generator:
        """Start a send; returns the :class:`Request`."""
        self._check_peer(dest)
        if tag < 0:
            raise MpiError(f"send tag must be non-negative, got {tag}")
        # Like the real libraries, every entry into the library opportunistically
        # runs the progress engine (this is where earlier sends' completions
        # are typically reaped).
        yield from self.poll()
        req = Request("send", self.rank, dest, tag, nbytes, context)
        if dest == self.rank:
            self._self_send(req, tag, nbytes, data, context)
            return req
        if nbytes > self.config.eager_limit:
            seq = self.next_seq()
            st = SendState(
                seq, req, dest, tag, nbytes, _buffer_snapshot(data),
                bufkey if bufkey is not None else ("send", dest, tag, nbytes),
                self.protocol,
            )
            self.sends[seq] = st
            yield from st.protocol.start_send(self, st)
            return req
        # Eager protocol: buffer the message and post it; the send request
        # completes locally (buffered semantics).  The XFER_END is stamped
        # by whichever later call drains the local completion.
        #
        # Two wire mechanisms (config.eager_mode): Open MPI posts on the
        # send channel (local completion when the DMA drains the bounce
        # buffer); MVAPICH2 RDMA-writes into the receiver's pre-registered
        # buffers with a notification (local completion at remote placement).
        params = self.params
        clock = self.clock
        clock.now = clock.now + params.copy_time(nbytes)
        clock.now = clock.now + params.post_cost
        xid = self.monitor.xfer_begin(nbytes)
        seq = self._seq = self._seq + 1
        pkt = _new(EagerPacket, (seq, self.rank, tag, nbytes,
                                 _buffer_snapshot(data), context))
        done = SendDone(self, xid, nbytes)
        t = self.engine.advance_to(clock.now)
        if t is not None:
            yield t
        if self.config.eager_mode == "rdma_write":
            self.nics[0].post_rdma_write(
                self.peers[dest],
                nbytes + params.control_packet_size,
                context=done,
                notify_payload=pkt,
            )
        else:
            self.post_send_channel(
                dest, nbytes + params.control_packet_size, pkt, context=done
            )
        req.complete()
        return req

    def _self_send(
        self, req: Request, tag: int, nbytes: float, data: object,
        context: int = 0,
    ) -> None:
        """Rank-to-self message: a local copy, no network, no XFER events."""
        self.spend(self.params.copy_time(nbytes))
        snapshot = _buffer_snapshot(data)
        posted = self.matching.match_arrival(self.rank, tag, context)
        if posted is not None:
            posted.complete(Status(self.rank, tag, nbytes), snapshot)
        else:
            self.matching.add_unexpected(
                _new(UnexpectedMsg, ("eager", self.next_seq(), self.rank, tag,
                                     nbytes, snapshot, 0.0, context))
            )
        req.complete()

    def irecv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, context: int = 0
    ) -> typing.Generator:
        """Post a receive; returns the :class:`Request`.

        If a matching arrival is already queued unexpected, it is consumed
        here -- for a rendezvous announcement this is where the data
        transfer is initiated (inside the ``Irecv`` call)."""
        if source != ANY_SOURCE:
            self._check_peer(source)
        yield from self.poll()  # opportunistic progress on library entry
        req = Request("recv", source, self.rank, tag, 0.0, context)
        msg = self.matching.post_recv(req)
        if msg is not None:
            if msg.kind == "eager":
                self._deliver_eager(req, msg.src, msg.tag, msg.nbytes, msg.data)
            else:
                yield from self._start_rendezvous_recv(
                    req, msg.seq, msg.src, msg.tag, msg.nbytes,
                    msg.frag_nbytes, msg.data,
                )
        return req

    def wait_any_activity(self) -> Event:
        """Event that fires at the next CQ entry or packet on *any* rail.

        One event is registered with every rail's waiter list (the rails'
        ``_kick`` tolerates a waiter another rail already fired): one
        allocation per sleep, whatever the number of rails, on the hottest
        blocking path in the library.
        """
        ev = Event(self.engine)
        for nic in self.nics:
            if nic.inbound or nic.cq:
                ev.succeed()
                return ev
        for nic in self.nics:
            nic._waiters.append(ev)
        return ev

    # -- completion driving ----------------------------------------------------
    def progress_until(self, pred: typing.Callable[[], bool]) -> typing.Generator:
        """Poll until ``pred()`` holds, sleeping on NIC activity when idle.
        (An empty poll leaves the rank in sync, so it may sleep; it wakes
        at the engine's time.)"""
        while not pred():
            progressed = yield from self.poll()
            if pred():
                break
            if not progressed:
                yield self.wait_any_activity()
                self.clock.now = self.engine.now

    def wait(self, req: Request) -> typing.Generator:
        """Drive one request to completion; returns its :class:`Status`.

        The ``progress_until`` loop is inlined (no predicate closure): wait
        is the hottest blocking entry point in the library.
        """
        while not req.done:
            progressed = yield from self.poll()
            if req.done:
                break
            if not progressed:
                yield self.wait_any_activity()
                self.clock.now = self.engine.now
        return req.status

    def wait_all(self, reqs: typing.Sequence[Request]) -> typing.Generator:
        """Drive several requests to completion; returns their statuses."""
        while not _all_done(reqs):
            progressed = yield from self.poll()
            if not progressed and not _all_done(reqs):
                yield self.wait_any_activity()
                self.clock.now = self.engine.now
        return [r.status for r in reqs]

    def wait_any(self, reqs: typing.Sequence[Request]) -> typing.Generator:
        """Drive until at least one request completes; returns the index of
        the first completed request (lowest index, MPI_Waitany-style)."""
        if not reqs:
            raise MpiError("wait_any needs at least one request")
        yield from self.progress_until(lambda: any(r.done for r in reqs))
        for i, req in enumerate(reqs):
            if req.done:
                return i
        raise AssertionError("unreachable")  # pragma: no cover

    def wait_some(self, reqs: typing.Sequence[Request]) -> typing.Generator:
        """Drive until at least one request completes; returns the indices
        of every completed request (MPI_Waitsome-style)."""
        if not reqs:
            raise MpiError("wait_some needs at least one request")
        yield from self.progress_until(lambda: any(r.done for r in reqs))
        return [i for i, r in enumerate(reqs) if r.done]

    def test(self, req: Request) -> typing.Generator:
        """One progress poll; returns True if the request completed."""
        if not req.done:
            yield from self.poll()
        return req.done

    def test_all(self, reqs: typing.Sequence[Request]) -> typing.Generator:
        """One progress poll; returns True if every request completed."""
        if not _all_done(reqs):
            yield from self.poll()
        return _all_done(reqs)

    def cancel(self, req: Request) -> typing.Generator:
        """Cancel a posted receive that has not matched yet.

        Returns True if cancelled (the request is then complete with
        ``cancelled`` set); False if it already matched or completed --
        the MPI semantics: cancellation of a matched receive fails.
        Send requests cannot be cancelled (the data may be on the wire).
        """
        yield from self.poll()
        if req.done:
            return False
        if req.kind != "recv":
            raise MpiError("only receive requests can be cancelled")
        if self.matching.cancel_recv(req):
            req.cancelled = True
            req.complete()
            return True
        return False

    def iprobe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, context: int = 0
    ) -> typing.Generator:
        """One progress poll; returns the Status of a matchable arrival, or
        None.  (The poll itself is the SP-tuning mechanism of Sec. 4.3.)"""
        yield from self.poll()
        msg = self.matching.peek(source, tag, context)
        if msg is None:
            return None
        return Status(msg.src, msg.tag, msg.nbytes)

    def probe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, context: int = 0
    ) -> typing.Generator:
        """Block until a matchable arrival is queued; returns its Status."""
        result: list[Status] = []

        def found() -> bool:
            msg = self.matching.peek(source, tag, context)
            if msg is not None:
                result.clear()
                result.append(Status(msg.src, msg.tag, msg.nbytes))
                return True
            return False

        yield from self.progress_until(found)
        return result[0]

    # -- misc -------------------------------------------------------------------
    def _check_peer(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise MpiError(f"peer rank {rank} out of range [0, {self.size})")

    def quiescent(self) -> bool:
        """True when no protocol state or stamped completion is outstanding.

        With resilience armed, unacked reliable packets also count as
        outstanding: Finalize keeps polling so late acks are consumed (or
        until the retry budget abandons the packet).
        """
        return (
            not self.sends
            and not self.recvs
            and self.pending_local_completions == 0
            and not self._unacked
            and all(not nic.cq and not nic.inbound for nic in self.nics)
        )

    def backlog(self) -> "tuple[int, int, int, int, list[Nic]]":
        """What a watchdog diagnostic shows of this rank: outstanding
        sends and receives, pending local completions, unacked reliable
        packets, and the NICs whose queues it drains."""
        return (len(self.sends), len(self.recvs),
                self.pending_local_completions, len(self._unacked), self.nics)

    def finalize(self) -> typing.Generator:
        """Drain outstanding protocol state (the body of ``MPI_Finalize``).

        Without this, late local send completions would be resolved as
        over-optimistic case-3 transfers instead of being observed in the
        finalize call.
        """
        yield from self.sync()  # quiescent() looks at the NIC queues
        yield from self.progress_until(self.quiescent)

    def send_control(self, dest: int, payload: object) -> typing.Generator:
        """Post a control packet (costs one descriptor post)."""
        if not is_control_packet(payload):
            raise MpiError(
                f"non-control payload routed at control size: {payload!r}"
            )
        self.spend(self.params.post_cost)
        yield from self.sync()
        self.post_send_channel(dest, self.control_size, payload)


def _all_done(reqs: typing.Sequence[Request]) -> bool:
    # A loop, not ``all(<genexpr>)``: one frame per check, not one per request.
    for req in reqs:
        if not req.done:
            return False
    return True


def _buffer_snapshot(data: object) -> object:
    """Model send-buffer capture: numpy arrays are copied (the library may
    buffer them); immutable payloads pass through."""
    # A payload cannot be an ndarray in a process that never imported numpy.
    np = sys.modules.get("numpy")
    if np is not None and isinstance(data, np.ndarray):
        return data.copy()
    if isinstance(data, bytearray):
        return bytes(data)
    return data
