"""Direct RDMA-Read rendezvous (zero copy).

"On networks that provide an RDMA Read operation, like InfiniBand, the
receiver directly reads the sending application buffer upon receiving the
initial request and notifies the sender on transfer completion."
(paper Sec. 3.5.)  This is both Open MPI's ``mpi_leave_pinned`` path and
MVAPICH2's rendezvous design ("the sending user's buffer being pinned
on-the-fly and the receiver doing an RDMA Read on this buffer").

Event stamping follows the paper's Fig. 1 exactly: the sender stamps
``XFER_BEGIN`` inside the initiating call (posting the RTS) and
``XFER_END`` when the receiver's FIN is drained; the receiver stamps
``XFER_BEGIN`` when it posts the RDMA Read and ``XFER_END`` when the read
completion is drained.
"""

from __future__ import annotations

import typing

from repro.mpisim.packets import FinPacket, RtsPacket
from repro.mpisim.protocols.base import RendezvousProtocol
from repro.mpisim.status import Status

_new = tuple.__new__  # per-message records C-level, as in netsim.nic

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.mpisim.endpoint import Endpoint, RecvState, SendState


class RdmaReadProtocol(RendezvousProtocol):
    mode = "rget"

    # -- sender ----------------------------------------------------------
    def start_send(self, ep: "Endpoint", st: "SendState") -> typing.Generator:
        # Pin the send buffer (cache hit is free under leave_pinned).
        pin_cost = ep.regcache.register(st.bufkey, st.nbytes)
        if pin_cost > 0:
            ep.spend(pin_cost)
        # RTS carries the rkey (and, in simulation, the payload reference --
        # the bytes only "move" when the read completes).
        yield from ep.send_control(
            st.dest,
            _new(RtsPacket, (st.seq, ep.rank, st.tag, st.nbytes, 0.0,
                             st.data, st.req.context)),
        )
        st.xfer_id = ep.monitor.xfer_begin(st.nbytes)

    def on_cts(self, ep: "Endpoint", st: "SendState") -> typing.Generator:
        raise AssertionError("rget rendezvous uses no CTS")
        yield  # pragma: no cover

    def on_fin_to_sender(self, ep: "Endpoint", st: "SendState") -> None:
        ep.monitor.xfer_end(st.xfer_id, st.nbytes)
        st.req.complete()

    # -- receiver -----------------------------------------------------------
    def start_recv(
        self,
        ep: "Endpoint",
        rst: "RecvState",
        frag_nbytes: float,
        frag_data: object,
    ) -> typing.Generator:
        # Pin the receive buffer, then read the sender's memory directly.
        pin_cost = ep.regcache.register(("recv", rst.src, rst.tag, rst.nbytes), rst.nbytes)
        if pin_cost > 0:
            ep.spend(pin_cost)
        ep.spend(ep.params.post_cost)
        rst.xfer_id = ep.monitor.xfer_begin(rst.nbytes)
        data = frag_data  # zero-copy: reference travels with the completion

        def on_read_done() -> typing.Generator:
            ep.monitor.xfer_end(rst.xfer_id, rst.nbytes)
            # Notify the sender its buffer is free.
            yield from ep.send_control(
                rst.src, _new(FinPacket, (rst.seq, ep.rank, True, None))
            )
            ep.recvs.pop((rst.src, rst.seq), None)
            rst.req.complete(_new(Status, (rst.src, rst.tag, rst.nbytes)), data)

        yield from ep.sync()
        ep.nics[0].post_rdma_read(
            ep.nic_for(rst.src), rst.nbytes, context=on_read_done
        )

    def on_fin_to_receiver(
        self, ep: "Endpoint", rst: "RecvState", data: object
    ) -> None:
        raise AssertionError("rget rendezvous sends no FIN to the receiver")
