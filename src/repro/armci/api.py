"""ARMCI endpoint: one-sided RMA calls + the small message layer.

Every public call is one instrumented library call
(:meth:`repro.core.monitor.Monitor.call`, as in MPI).  A rank spends CPU
on its own :class:`~repro.sim.engine.RankClock` and catches the engine up
only before it looks at its NIC's queues or posts to it, exactly as an MPI
rank does (``docs/performance.md``, "Rank clocks and lazy
synchronisation").  RMA data transfers
stamp ``XFER_BEGIN`` at the descriptor post and ``XFER_END`` when the
completion-queue entry is drained; the message layer (barrier /
allreduce), like MPI control packets, moves no user-message bytes and is
not stamped with XFER events.
"""

from __future__ import annotations

import collections
import dataclasses
import typing

from repro import _numpy
from repro.armci import strided as _strided
from repro.armci.handles import NbHandle
from repro.core.measures import DEFAULT_BIN_EDGES
from repro.core.monitor import Monitor, NullMonitor
from repro.netsim.fabric import Fabric
from repro.netsim.nic import InboundPacket
from repro.sim import Engine
from repro.sim.engine import ClockOwner, RankClock


@dataclasses.dataclass(frozen=True)
class ArmciConfig:
    """Tunables of the simulated ARMCI library."""

    name: str = "armci"
    instrument: bool = True
    overhead_per_event: float = 25e-9
    queue_capacity: int = 4096
    bin_edges: tuple[float, ...] = DEFAULT_BIN_EDGES
    #: ARMCI drives one rail: a constant of the library, not a field.
    nics_per_node = 1

    def __post_init__(self) -> None:
        if self.overhead_per_event < 0:
            raise ValueError("overhead_per_event must be non-negative")


class Region:
    """A remotely accessible memory region owned by one rank.  One from
    :meth:`zeros` builds its array at the first ``array`` read: a window
    only size-only RMA targets never allocates, nor imports numpy."""

    __slots__ = ("owner", "name", "_array", "_zeros")

    def __init__(self, owner: int, name: str, array: np.ndarray) -> None:
        self.owner, self.name, self._array, self._zeros = owner, name, array, None

    @classmethod
    def zeros(cls, owner: int, name: str, shape: object, dtype: object) -> Region:
        """``np.zeros(shape, dtype)``, made at the first data access: a bad
        ``shape`` raises ``ValueError`` here, a bad ``dtype`` there."""
        dims = tuple(shape) if isinstance(shape, (tuple, list)) else (shape,)
        if not all(hasattr(d, "__index__") and d >= 0 for d in dims):
            raise ValueError(f"region shape must be non-negative ints, got {shape!r}")
        region = cls(owner, name, None)  # type: ignore[arg-type]
        region._zeros = (dims, dtype)
        return region

    @property
    def array(self) -> np.ndarray:
        if self._zeros is not None:
            self._array, self._zeros = _numpy().zeros(self._zeros[0], dtype=self._zeros[1]), None
        return self._array


class _MsgPacket(typing.NamedTuple):
    """Small message-layer payload (barrier tokens, reduction pieces)."""

    tag: int
    value: object


class ArmciError(RuntimeError):
    """Raised on misuse of the simulated ARMCI API."""


class ArmciEndpoint(ClockOwner):
    """One rank's ARMCI library instance."""

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        rank: int,
        size: int,
        config: ArmciConfig,
        monitor: "Monitor | NullMonitor",
        clock: RankClock,
        directory: dict[tuple[int, str], Region],
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
        #: ``self._call(name, body)``: run ``body`` as one instrumented call.
        self._call = monitor.call
        self.nic = fabric.nic(rank)
        #: Cluster-wide region directory (shared object, read-only use).
        self.directory = directory
        #: Outstanding non-blocking handles (for fence / finalize).
        self.outstanding: list[NbHandle] = []
        #: Message-layer mailbox: tag -> FIFO of (src, value).
        self._mailbox: dict[int, collections.deque] = {}
        self._msg_seq = 0
        self.pending_local = 0

    def backlog(self) -> "tuple[int, int, int, int, list]":
        """What a watchdog diagnostic shows of this rank (as
        :meth:`repro.mpisim.endpoint.Endpoint.backlog`): one-sided, so no
        receives, and no reliable transport, so nothing unacked."""
        return len(self.outstanding), 0, self.pending_local, 0, [self.nic]

    # -- region management ------------------------------------------------
    def register_region(self, name: str, array: np.ndarray) -> Region:
        """Expose ``array`` for remote access under ``name`` (collective in
        spirit: every rank registers its own piece)."""
        return self._register(Region(self.rank, name, array))

    def _register(self, region: Region) -> Region:
        key = (self.rank, region.name)
        if key in self.directory:
            raise ArmciError(f"region {key[1]!r} already registered on rank {self.rank}")
        self.directory[key] = region
        return region

    def region_of(self, owner: int, name: str) -> Region:
        try:
            return self.directory[(owner, name)]
        except KeyError:
            raise ArmciError(f"no region {name!r} on rank {owner}") from None

    # -- progress ---------------------------------------------------------------
    def poll(self) -> typing.Generator:
        """Drain CQ entries and message-layer packets (polling progress).

        Every look at the queues is synced, the one after each item's
        ``poll_cost`` included: what arrived meanwhile decides whether a
        completion or a packet is taken.
        """
        clock = self.clock
        poll_cost = self.params.poll_cost
        advance_to = self.engine.advance_to
        cq, inbound = self.nic.cq, self.nic.inbound
        clock.now = clock.now + poll_cost
        progressed = False
        while True:
            t = advance_to(clock.now)
            if t is not None:
                yield t
            if not (cq or inbound):
                return progressed
            progressed = True
            clock.now = clock.now + poll_cost
            t = advance_to(clock.now)
            if t is not None:
                yield t
            if cq:
                entry = cq.popleft()
                if entry.context is not None:
                    result = entry.context()
                    if result is not None:
                        yield from result
            else:
                pkt = typing.cast(InboundPacket, inbound.popleft())
                msg = typing.cast(_MsgPacket, pkt.payload)
                self._mailbox.setdefault(msg.tag, collections.deque()).append(
                    (pkt.src_node, msg.value)
                )

    def progress_until(self, pred: typing.Callable[[], bool]) -> typing.Generator:
        """Poll until ``pred()`` holds, sleeping on NIC activity when idle.
        (An empty poll leaves the rank in sync, so it may sleep; it wakes
        at the engine's time.)"""
        while not pred():
            progressed = yield from self.poll()
            if pred():
                break
            if not progressed:
                yield self.nic.wait_activity()
                self.clock.now = self.engine.now

    # -- RMA bodies (shared by blocking and non-blocking forms) -----------------
    def _check_target(self, target: int) -> None:
        if not 0 <= target < self.size:
            raise ArmciError(f"target rank {target} out of range")
        if target == self.rank:
            raise ArmciError("local RMA should use plain memory access")

    def _track(self, handle: NbHandle) -> None:
        self.outstanding.append(handle)

    def _nbput_body(
        self, target: int, region: str, offset: int, data: np.ndarray | None,
        nbytes: float | None, accumulate: bool,
    ) -> typing.Generator:
        self._check_target(target)
        if data is None and nbytes is None:
            raise ArmciError("need data or an explicit byte count")
        size = float(data.nbytes) if data is not None else float(nbytes)  # type: ignore[union-attr]
        yield from self.poll()  # opportunistic progress on entry
        self.spend(self.params.post_cost)
        handle = NbHandle("acc" if accumulate else "put", target, size)
        xid = self.monitor.xfer_begin(size)
        snapshot = data.copy() if data is not None else None
        self.pending_local += 1

        def on_done() -> None:
            self.pending_local -= 1
            self.monitor.xfer_end(xid, size)
            if snapshot is not None:
                dest = self.region_of(target, region).array
                view = dest.reshape(-1)[offset : offset + snapshot.size]
                if accumulate:
                    view += snapshot.reshape(-1)
                else:
                    view[:] = snapshot.reshape(-1)
            handle.complete()

        yield from self.sync()
        self.nic.post_rdma_write(self.fabric.nic(target), size, context=on_done)
        self._track(handle)
        return handle

    def _nbget_body(
        self, target: int, region: str, offset: int, count: int | None,
        nbytes: float | None,
    ) -> typing.Generator:
        self._check_target(target)
        if count is None and nbytes is None:
            raise ArmciError("need an element count or an explicit byte count")
        if count is not None:
            src = self.region_of(target, region).array
            size = float(src.dtype.itemsize * count)
        else:
            size = float(nbytes)  # type: ignore[arg-type]
        yield from self.poll()
        self.spend(self.params.post_cost)
        handle = NbHandle("get", target, size)
        xid = self.monitor.xfer_begin(size)
        self.pending_local += 1

        def on_done() -> None:
            self.pending_local -= 1
            self.monitor.xfer_end(xid, size)
            data = None
            if count is not None:
                src_arr = self.region_of(target, region).array
                data = src_arr.reshape(-1)[offset : offset + count].copy()
            handle.complete(data)

        yield from self.sync()
        self.nic.post_rdma_read(self.fabric.nic(target), size, context=on_done)
        self._track(handle)
        return handle

    def _wait_body(self, handle: NbHandle) -> typing.Generator:
        yield from self.progress_until(lambda: handle.done)
        if handle in self.outstanding:
            self.outstanding.remove(handle)
        return handle.data

    def _blocking(self, start: typing.Generator) -> typing.Generator:
        """A blocking form: the non-blocking body ``start``, then its wait."""
        handle = yield from start
        return (yield from self._wait_body(handle))

    # -- public API ---------------------------------------------------------------
    def nbput(
        self, target: int, region: str, data: np.ndarray | None = None,
        offset: int = 0, nbytes: float | None = None,
    ) -> typing.Generator:
        """Non-blocking put; returns an :class:`NbHandle`."""
        return self._call("ARMCI_NbPut", self._nbput_body(
            target, region, offset, data, nbytes, False))

    def put(
        self, target: int, region: str, data: np.ndarray | None = None,
        offset: int = 0, nbytes: float | None = None,
    ) -> typing.Generator:
        """Blocking put (returns when remotely complete)."""
        return self._call("ARMCI_Put", self._blocking(self._nbput_body(
            target, region, offset, data, nbytes, False)))

    def nbacc(
        self, target: int, region: str, data: np.ndarray,
        offset: int = 0,
    ) -> typing.Generator:
        """Non-blocking accumulate (elementwise add into the remote region)."""
        return self._call("ARMCI_NbAcc", self._nbput_body(
            target, region, offset, data, None, True))

    def acc(
        self, target: int, region: str, data: np.ndarray, offset: int = 0
    ) -> typing.Generator:
        """Blocking accumulate."""
        return self._call("ARMCI_Acc", self._blocking(self._nbput_body(
            target, region, offset, data, None, True)))

    def nbget(
        self, target: int, region: str, offset: int = 0,
        count: int | None = None, nbytes: float | None = None,
    ) -> typing.Generator:
        """Non-blocking get; the handle's ``data`` is filled at completion."""
        return self._call("ARMCI_NbGet", self._nbget_body(
            target, region, offset, count, nbytes))

    def get(
        self, target: int, region: str, offset: int = 0,
        count: int | None = None, nbytes: float | None = None,
    ) -> typing.Generator:
        """Blocking get; returns the data (or None in size-only mode)."""
        return self._call("ARMCI_Get", self._blocking(self._nbget_body(
            target, region, offset, count, nbytes)))

    def wait(self, handle: NbHandle) -> typing.Generator:
        """Complete one non-blocking operation; returns get data if any."""
        return self._call("ARMCI_Wait", self._wait_body(handle))

    def wait_all(self, handles: typing.Sequence[NbHandle]) -> typing.Generator:
        """Complete several non-blocking operations."""

        def body() -> typing.Generator:
            yield from self.progress_until(lambda: all(h.done for h in handles))
            for h in handles:
                if h in self.outstanding:
                    self.outstanding.remove(h)

        return self._call("ARMCI_WaitAll", body())

    def fence(self, target: int | None = None) -> typing.Generator:
        """Complete all outstanding operations (to ``target``, or all)."""

        def body() -> typing.Generator:
            pending = [
                h
                for h in self.outstanding
                if target is None or h.target == target
            ]
            yield from self.progress_until(lambda: all(h.done for h in pending))
            for h in pending:
                self.outstanding.remove(h)

        return self._call("ARMCI_Fence", body())

    # -- strided RMA (ARMCI_PutS / ARMCI_GetS) --------------------------------------
    def nbput_strided(
        self, target: int, region: str, spec: _strided.StridedSpec,
        data: np.ndarray | None = None, strategy: str = "auto",
    ) -> typing.Generator:
        """Non-blocking strided put; one handle covers all segments."""
        return self._call("ARMCI_NbPutS", _strided.nbput_strided(
            self, target, region, spec, data, strategy))

    def put_strided(
        self, target: int, region: str, spec: _strided.StridedSpec,
        data: np.ndarray | None = None, strategy: str = "auto",
    ) -> typing.Generator:
        """Blocking strided put."""
        return self._call("ARMCI_PutS", self._blocking(_strided.nbput_strided(
            self, target, region, spec, data, strategy)))

    def nbget_strided(
        self, target: int, region: str, spec: _strided.StridedSpec,
        want_data: bool = False, strategy: str = "auto",
    ) -> typing.Generator:
        """Non-blocking strided get; handle.data receives packed segments."""
        return self._call("ARMCI_NbGetS", _strided.nbget_strided(
            self, target, region, spec, want_data, strategy))

    def get_strided(
        self, target: int, region: str, spec: _strided.StridedSpec,
        want_data: bool = False, strategy: str = "auto",
    ) -> typing.Generator:
        """Blocking strided get; returns the packed segments (or None)."""
        return self._call("ARMCI_GetS", self._blocking(_strided.nbget_strided(
            self, target, region, spec, want_data, strategy)))

    # -- message layer -------------------------------------------------------------
    def _msg_send(self, dest: int, tag: int, value: object) -> typing.Generator:
        self.spend(self.params.post_cost)
        yield from self.sync()
        self.nic.post_send(
            self.fabric.nic(dest),
            self.params.control_packet_size,
            _MsgPacket(tag, value),
            context=None,
        )

    def _msg_recv(self, tag: int) -> typing.Generator:
        box = self._mailbox.setdefault(tag, collections.deque())
        yield from self.progress_until(lambda: bool(box))
        _src, value = box.popleft()
        return value

    def barrier(self) -> typing.Generator:
        """Dissemination barrier over the message layer."""

        def body() -> typing.Generator:
            self._msg_seq += 1
            base = self._msg_seq * 64
            dist, k = 1, 0
            while dist < self.size:
                yield from self._msg_send((self.rank + dist) % self.size, base + k, None)
                yield from self._msg_recv(base + k)
                dist <<= 1
                k += 1

        return self._call("armci_msg_barrier", body())

    def msg_allreduce(
        self,
        value: object,
        op: typing.Callable[[object, object], object] = lambda a, b: a + b,
    ) -> typing.Generator:
        """Small allreduce over the message layer (binomial reduce to rank 0
        followed by a binomial broadcast; correct for any rank count)."""

        def body() -> typing.Generator:
            self._msg_seq += 1
            base = self._msg_seq * 64
            size, rank = self.size, self.rank
            acc = value
            # Reduce to rank 0.
            mask = 1
            while mask < size:
                if rank & mask == 0:
                    peer = rank | mask
                    if peer < size:
                        other = yield from self._msg_recv(base + 0)
                        acc = op(acc, other)
                else:
                    yield from self._msg_send(rank & ~mask, base + 0, acc)
                    break
                mask <<= 1
            # Broadcast the result.
            mask = 1
            while mask < size:
                if rank & mask:
                    acc = yield from self._msg_recv(base + 1)
                    break
                mask <<= 1
            mask >>= 1
            while mask > 0:
                if rank & mask == 0 and rank + mask < size and (rank % (mask * 2) == 0):
                    yield from self._msg_send(rank + mask, base + 1, acc)
                mask >>= 1
            return acc

        return self._call("armci_msg_gop", body())

    def finalize(self) -> typing.Generator:
        """Drain everything outstanding (end-of-run)."""

        def body() -> typing.Generator:
            yield from self.sync()  # the quiescence test looks at the NIC
            yield from self.progress_until(
                lambda: all(h.done for h in self.outstanding)
                and self.pending_local == 0
                and not self.nic.cq
                and not self.nic.inbound
            )
            self.outstanding.clear()

        return self._call("ARMCI_Finalize", body())
