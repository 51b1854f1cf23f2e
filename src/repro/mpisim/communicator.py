"""The application-facing communicator.

Every public method demarcates exactly one instrumented library call
(``CALL_ENTER`` / ``CALL_EXIT``), mirrors the MPI call it models, and is a
generator coroutine (``status = yield from comm.recv(...)``).

The demarcation is the monitor's (:meth:`repro.core.monitor.Monitor.call`,
shared with ARMCI), and so is the instrumentation overhead of Fig. 20:
each event stamped during a call costs
:attr:`~repro.mpisim.config.MpiConfig.overhead_per_event` of CPU, charged
to the rank's clock before the call returns.
"""

from __future__ import annotations

import typing

from repro.mpisim.collectives import (
    allgather, allreduce, alltoall, alltoallv, barrier, bcast, gather,
    gatherv, reduce, reduce_scatter, scan, scatter, scatterv,
)
from repro.mpisim.endpoint import Endpoint
from repro.mpisim.request import PersistentRequest, Request
from repro.mpisim.status import ANY_SOURCE, ANY_TAG, MpiError, Status


#: Shared world-group tuples, one per world size.  Every rank's world
#: communicator used to build its own ``tuple(range(size))`` -- at 4096
#: ranks that is ~570 MB of duplicate int objects and the single largest
#: allocation in a high-rank run.  Groups are immutable, so all ranks of
#: one world can share a single tuple.
_WORLD_GROUPS: dict[int, tuple[int, ...]] = {}


def _world_group(size: int) -> tuple[int, ...]:
    group = _WORLD_GROUPS.get(size)
    if group is None:
        group = _WORLD_GROUPS[size] = tuple(range(size))
    return group


class _GroupEndpoint:
    """Group-scoped endpoint adapter handed to the collective algorithms.

    Exposes exactly the surface the algorithms use (``rank``, ``size``,
    ``coll_seq``, point-to-point internals), with group-rank translation
    and the communicator's context id applied.
    """

    def __init__(self, endpoint: Endpoint, group: tuple[int, ...], ctx: int,
                 rank: "int | None" = None) -> None:
        self._ep = endpoint
        self._group = group
        self._ctx = ctx
        self.rank = group.index(endpoint.rank) if rank is None else rank
        self.size = len(group)
        self.coll_seq = 0  # per-communicator collective counter

    def isend(self, dest: int, tag: int, nbytes: float, data: object = None,
              bufkey: object = None) -> typing.Generator:
        return self._ep.isend(
            self._group[dest], tag, nbytes, data, bufkey, context=self._ctx
        )

    def irecv(self, source: int, tag: int) -> typing.Generator:
        world = self._group[source] if source != ANY_SOURCE else ANY_SOURCE
        return self._ep.irecv(world, tag, context=self._ctx)

    def wait(self, req: Request) -> typing.Generator:
        return self._ep.wait(req)

    def wait_all(self, reqs: typing.Sequence[Request]) -> typing.Generator:
        return self._ep.wait_all(reqs)


class Comm:
    """MPI-like communicator bound to one rank's endpoint.

    The default construction is the world communicator; :meth:`split` and
    :meth:`dup` derive sub-communicators with their own rank numbering and
    an isolated matching context (messages never cross communicators).
    """

    def __init__(
        self,
        endpoint: Endpoint,
        group: tuple[int, ...] | None = None,
        comm_id: int = 0,
    ) -> None:
        self.ep = endpoint
        # ``group is None`` selects the world communicator: group rank ==
        # world rank, so membership is a range check, the group tuple is
        # shared across all ranks, and rank translation is the identity.
        self._identity = group is None
        if group is None:
            if not 0 <= endpoint.rank < endpoint.size:
                raise MpiError(
                    f"rank {endpoint.rank} is not a member of a world of "
                    f"size {endpoint.size}"
                )
            self.group = _world_group(endpoint.size)
        else:
            self.group = group
            if endpoint.rank not in group:
                raise MpiError(
                    f"rank {endpoint.rank} is not a member of group {group}"
                )
        self.comm_id = comm_id
        self._gep = _GroupEndpoint(
            endpoint, self.group, comm_id,
            rank=endpoint.rank if self._identity else None,
        )
        self._split_seq = 0
        #: ``self._call(name, body)``: run ``body`` as one instrumented call.
        self._call = endpoint.monitor.call

    @property
    def rank(self) -> int:
        """This process's rank *within this communicator*."""
        return self._gep.rank

    @property
    def size(self) -> int:
        return self._gep.size

    # -- rank translation ------------------------------------------------------
    def _world(self, group_rank: int) -> int:
        if group_rank == ANY_SOURCE:
            return ANY_SOURCE
        try:
            return self.group[group_rank]
        except IndexError:
            raise MpiError(
                f"rank {group_rank} out of range for communicator of size "
                f"{self.size}"
            ) from None

    def _local(self, world_rank: int) -> int:
        # World communicators translate per received Status; the O(size)
        # ``tuple.index`` scan here was a leading per-message cost at
        # thousands of ranks.  Identity for world, scan for sub-groups.
        if self._identity:
            return world_rank
        return self.group.index(world_rank)

    def _status(self, status: Status | None) -> Status | None:
        """Translate a Status's source from world to group numbering."""
        if status is None:
            return None
        return Status(self._local(status.source), status.tag, status.nbytes)

    def _renumbered(self, call: typing.Generator) -> typing.Generator:
        """``call``, with the status(es) it returns in group numbering.

        The world communicator's numbering *is* the world's, so there the
        call is handed back as it is -- one generator frame fewer on every
        resumption of a wait.
        """
        return call if self._identity else self._renumber(call)

    def _renumber(self, call: typing.Generator) -> typing.Generator:
        result = yield from call
        if isinstance(result, list):
            return [self._status(status) for status in result]
        return self._status(result)

    # -- point-to-point ---------------------------------------------------------
    def isend(
        self,
        dest: int,
        tag: int,
        nbytes: float,
        data: object = None,
        bufkey: object = None,
    ) -> typing.Generator:
        """Non-blocking send; returns a :class:`Request`.

        ``bufkey`` names the send buffer for registration caching (reusing
        the same key models reusing the same application buffer).
        """
        return self._call(
            "MPI_Isend",
            self.ep.isend(self._world(dest), tag, nbytes, data, bufkey,
                          context=self.comm_id),
        )

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> typing.Generator:
        """Non-blocking receive; returns a :class:`Request`."""
        return self._call(
            "MPI_Irecv",
            self.ep.irecv(self._world(source), tag, context=self.comm_id),
        )

    def send(
        self,
        dest: int,
        tag: int,
        nbytes: float,
        data: object = None,
        bufkey: object = None,
    ) -> typing.Generator:
        """Blocking send (returns when the send buffer is reusable)."""
        return self._call(
            "MPI_Send",
            self._send_body(self._world(dest), tag, nbytes, data, bufkey),
        )

    def _send_body(self, dest: int, tag: int, nbytes: float, data: object,
                   bufkey: object) -> typing.Generator:
        ep = self.ep
        req = yield from ep.isend(dest, tag, nbytes, data, bufkey,
                                  context=self.comm_id)
        yield from ep.wait(req)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> typing.Generator:
        """Blocking receive; returns ``(status, data)``."""
        return self._call("MPI_Recv", self._recv_body(self._world(source), tag))

    def _recv_body(self, source: int, tag: int) -> typing.Generator:
        ep = self.ep
        req = yield from ep.irecv(source, tag, context=self.comm_id)
        status = yield from ep.wait(req)
        return (self._status(status), req.data)

    def wait(self, req: Request) -> typing.Generator:
        """Block until ``req`` completes; returns its :class:`Status`
        (source in this communicator's numbering)."""
        return self._renumbered(self._call("MPI_Wait", self.ep.wait(req)))

    def waitall(self, reqs: typing.Sequence[Request]) -> typing.Generator:
        """Block until every request completes; returns their statuses."""
        return self._renumbered(
            self._call("MPI_Waitall", self.ep.wait_all(reqs)))

    def waitany(self, reqs: typing.Sequence[Request]) -> typing.Generator:
        """Block until some request completes; returns its index."""
        return self._call("MPI_Waitany", self.ep.wait_any(reqs))

    def waitsome(self, reqs: typing.Sequence[Request]) -> typing.Generator:
        """Block until at least one completes; returns completed indices."""
        return self._call("MPI_Waitsome", self.ep.wait_some(reqs))

    def test(self, req: Request) -> typing.Generator:
        """One progress poll; returns True if ``req`` is complete."""
        return self._call("MPI_Test", self.ep.test(req))

    def testall(self, reqs: typing.Sequence[Request]) -> typing.Generator:
        """One progress poll; returns True if every request is complete."""
        return self._call("MPI_Testall", self.ep.test_all(reqs))

    def cancel(self, req: Request) -> typing.Generator:
        """Cancel an unmatched posted receive; returns True on success."""
        return self._call("MPI_Cancel", self.ep.cancel(req))

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> typing.Generator:
        """Non-blocking probe; returns a :class:`Status` or None.

        Besides checking for a matchable arrival this runs the progress
        engine once -- the mechanism exploited to improve NAS SP
        (paper Sec. 4.3).
        """
        return self._renumbered(self._call(
            "MPI_Iprobe",
            self.ep.iprobe(self._world(source), tag, context=self.comm_id),
        ))

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> typing.Generator:
        """Blocking probe; returns the :class:`Status` of a pending arrival."""
        return self._renumbered(self._call(
            "MPI_Probe",
            self.ep.probe(self._world(source), tag, context=self.comm_id),
        ))

    def sendrecv(
        self,
        dest: int,
        sendtag: int,
        send_nbytes: float,
        source: int,
        recvtag: int,
        data: object = None,
    ) -> typing.Generator:
        """Combined send+receive; returns ``(status, data)`` of the receive."""

        def body() -> typing.Generator:
            rreq = yield from self.ep.irecv(
                self._world(source), recvtag, context=self.comm_id
            )
            sreq = yield from self.ep.isend(
                self._world(dest), sendtag, send_nbytes, data,
                context=self.comm_id,
            )
            yield from self.ep.wait_all([sreq, rreq])
            return (self._status(rreq.status), rreq.data)

        return self._call("MPI_Sendrecv", body())

    # -- persistent requests ---------------------------------------------------
    def send_init(
        self,
        dest: int,
        tag: int,
        nbytes: float,
        data: object = None,
        bufkey: object = None,
    ) -> PersistentRequest:
        """Build a reusable send recipe (``MPI_Send_init``); no message
        moves until :meth:`start`.  Purely local: not a library call."""
        self._world(dest)  # validate now
        return PersistentRequest("send", dest, tag, nbytes, data, bufkey)

    def recv_init(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> PersistentRequest:
        """Build a reusable receive recipe (``MPI_Recv_init``)."""
        if source != ANY_SOURCE:
            self._world(source)
        return PersistentRequest("recv", source, tag, 0.0)

    def start(self, preq: PersistentRequest) -> typing.Generator:
        """Activate a persistent request (``MPI_Start``)."""
        return self._call("MPI_Start", self._start_body((preq,)))

    def startall(
        self, preqs: typing.Sequence[PersistentRequest]
    ) -> typing.Generator:
        """Activate several persistent requests (``MPI_Startall``)."""
        return self._call("MPI_Startall", self._start_body(preqs))

    def _start_body(
        self, preqs: typing.Sequence[PersistentRequest]
    ) -> typing.Generator:
        for preq in preqs:
            if preq.is_active:
                raise MpiError(f"{preq!r} is already active")
            if preq.kind == "send":
                preq.active = yield from self.ep.isend(
                    self._world(preq.peer), preq.tag, preq.nbytes,
                    preq.data, preq.bufkey, context=self.comm_id,
                )
            else:
                preq.active = yield from self.ep.irecv(
                    self._world(preq.peer), preq.tag, context=self.comm_id
                )

    def wait_persistent(self, preq: PersistentRequest) -> typing.Generator:
        """Complete the current activation; the handle stays reusable.

        Returns ``(status, data)`` for receives, ``(None, None)`` for sends.
        """
        if preq.active is None:
            raise MpiError(f"{preq!r} has not been started")
        req = preq.active
        status = yield from self.wait(req)
        preq.active = None
        return (status, req.data)

    def finalize(self) -> typing.Generator:
        """Drain outstanding completions (``MPI_Finalize``); the launcher
        calls this after the application returns."""
        return self._call("MPI_Finalize", self.ep.finalize())

    # -- collectives ---------------------------------------------------------
    def barrier(self) -> typing.Generator:
        """Block until all ranks arrive."""
        return self._call("MPI_Barrier", barrier(self._gep))

    def bcast(self, root: int, nbytes: float, data: object = None) -> typing.Generator:
        """Broadcast from ``root``; returns the value everywhere."""
        return self._call("MPI_Bcast", bcast(self._gep, root, nbytes, data))

    def reduce(
        self,
        root: int,
        value: object,
        nbytes: float,
        op: typing.Callable[[object, object], object] | None = None,
    ) -> typing.Generator:
        """Reduce to ``root``; returns the result there, None elsewhere."""
        return self._call(
            "MPI_Reduce", reduce(self._gep, root, value, nbytes, op)
        )

    def allreduce(
        self,
        value: object,
        nbytes: float,
        op: typing.Callable[[object, object], object] | None = None,
    ) -> typing.Generator:
        """Reduce across all ranks; returns the result everywhere."""
        return self._call(
            "MPI_Allreduce", allreduce(self._gep, value, nbytes, op)
        )

    def alltoall(
        self, nbytes_each: float, data: typing.Sequence[object] | None = None
    ) -> typing.Generator:
        """Personalized exchange; returns the rank-indexed received blocks.

        The schedule (pairwise or Bruck) follows the library configuration.
        """
        return self._call(
            "MPI_Alltoall",
            alltoall(self._gep, nbytes_each, data,
                     algorithm=self.ep.config.alltoall_algorithm),
        )

    def alltoallv(
        self,
        send_sizes: typing.Sequence[float],
        data: typing.Sequence[object] | None = None,
    ) -> typing.Generator:
        """Vector personalized exchange."""
        return self._call(
            "MPI_Alltoallv", alltoallv(self._gep, send_sizes, data)
        )

    def scan(
        self,
        value: object,
        nbytes: float,
        op: typing.Callable[[object, object], object] | None = None,
    ) -> typing.Generator:
        """Inclusive prefix reduction; rank r returns the fold over 0..r."""
        return self._call("MPI_Scan", scan(self._gep, value, nbytes, op))

    def reduce_scatter(
        self,
        blocks: typing.Sequence[object],
        block_nbytes: float,
        op: typing.Callable[[object, object], object] | None = None,
    ) -> typing.Generator:
        """Reduce blocks elementwise; rank i returns reduced block i."""
        return self._call(
            "MPI_Reduce_scatter",
            reduce_scatter(self._gep, blocks, block_nbytes, op),
        )

    def allgather(self, nbytes: float, data: object = None) -> typing.Generator:
        """Gather everyone's block everywhere; returns a rank-indexed list."""
        return self._call("MPI_Allgather", allgather(self._gep, nbytes, data))

    def gather(self, root: int, nbytes: float, data: object = None) -> typing.Generator:
        """Gather blocks at ``root``."""
        return self._call("MPI_Gather", gather(self._gep, root, nbytes, data))

    def scatter(
        self,
        root: int,
        nbytes: float,
        blocks: typing.Sequence[object] | None = None,
    ) -> typing.Generator:
        """Scatter root's blocks; returns this rank's block."""
        return self._call(
            "MPI_Scatter", scatter(self._gep, root, nbytes, blocks)
        )

    def gatherv(
        self, root: int, nbytes: float, data: object = None
    ) -> typing.Generator:
        """Variable-size gather (each rank contributes its own size)."""
        return self._call(
            "MPI_Gatherv", gatherv(self._gep, root, nbytes, data)
        )

    def scatterv(
        self,
        root: int,
        nbytes_list: typing.Sequence[float] | None = None,
        blocks: typing.Sequence[object] | None = None,
    ) -> typing.Generator:
        """Variable-size scatter; sizes/blocks significant at the root."""
        return self._call(
            "MPI_Scatterv",
            scatterv(self._gep, root, nbytes_list, blocks),
        )

    # -- communicator management -------------------------------------------------
    def split(self, color: int | None, key: int = 0) -> typing.Generator:
        """Partition this communicator (``MPI_Comm_split``).

        Collective over this communicator.  Ranks passing the same
        ``color`` land in the same new communicator, ordered by
        ``(key, old rank)``; ``color=None`` (MPI_UNDEFINED) returns None.
        The derived communicator gets a fresh matching context, so its
        traffic never crosses into the parent or siblings.
        """
        self._split_seq += 1
        split_seq = self._split_seq

        infos = yield from self._call(
            "MPI_Comm_split", allgather(self._gep, 16, (color, key, self.rank)))
        if color is None:
            return None
        members = sorted(
            (k, old_rank)
            for c, k, old_rank in infos
            if c == color
        )
        new_group = tuple(self._world(old_rank) for _k, old_rank in members)
        # Context id derived identically on every member: parent context,
        # the parent's split counter, and the color.
        new_id = ((self.comm_id * 1009 + split_seq) * 100_003 + color + 1)
        return Comm(self.ep, group=new_group, comm_id=new_id)

    def dup(self) -> typing.Generator:
        """Duplicate this communicator with an isolated context
        (``MPI_Comm_dup``)."""
        new_comm = yield from self.split(color=0, key=self.rank)
        assert new_comm is not None
        return new_comm

    def __repr__(self) -> str:
        return (
            f"<Comm rank {self.rank}/{self.size} ctx={self.comm_id} "
            f"({self.ep.config.name})>"
        )
