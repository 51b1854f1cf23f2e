"""Single-shot RDMA-Write rendezvous (CTS-then-put; ablation variant).

"Upon receiving an RDMA put request, the sender performs an RDMA Write
into the receive application buffer followed by another message to
indicate write completion." (paper Sec. 3.5.)  Unlike the pipelined
scheme the whole payload moves in one write, so the write is a single
data-transfer operation; unlike rget, the *sender's* NIC does the work
and the transfer cannot start until the sender's progress engine drains
the CTS -- which is what makes this scheme interesting as an ablation.
"""

from __future__ import annotations

import typing

from repro.mpisim.packets import CtsPacket, FinPacket, RtsPacket
from repro.mpisim.protocols.base import RendezvousProtocol
from repro.mpisim.status import Status

_new = tuple.__new__  # per-message records C-level, as in netsim.nic

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.mpisim.endpoint import Endpoint, RecvState, SendState


class RdmaWriteProtocol(RendezvousProtocol):
    mode = "rput"

    # -- sender ----------------------------------------------------------
    def start_send(self, ep: "Endpoint", st: "SendState") -> typing.Generator:
        pin_cost = ep.regcache.register(st.bufkey, st.nbytes)
        if pin_cost > 0:
            ep.spend(pin_cost)
        yield from ep.send_control(
            st.dest,
            _new(RtsPacket, (st.seq, ep.rank, st.tag, st.nbytes, 0.0, None,
                             st.req.context)),
        )
        # The sender knows precisely when it will initiate the write (after
        # the CTS), so no XFER_BEGIN yet -- it is stamped at the write post.

    def on_cts(self, ep: "Endpoint", st: "SendState") -> typing.Generator:
        ep.spend(ep.params.post_cost)
        st.xfer_id = ep.monitor.xfer_begin(st.nbytes)

        def on_written() -> typing.Generator:
            ep.monitor.xfer_end(st.xfer_id, st.nbytes)
            yield from ep.send_control(
                st.dest, _new(FinPacket, (st.seq, ep.rank, False, st.data))
            )
            ep.sends.pop(st.seq, None)
            st.req.complete()

        yield from ep.sync()
        ep.nics[0].post_rdma_write(
            ep.nic_for(st.dest), st.nbytes, context=on_written
        )

    def on_fin_to_sender(self, ep: "Endpoint", st: "SendState") -> None:
        raise AssertionError("rput rendezvous sends no FIN to the sender")

    # -- receiver -----------------------------------------------------------
    def start_recv(
        self,
        ep: "Endpoint",
        rst: "RecvState",
        frag_nbytes: float,
        frag_data: object,
    ) -> typing.Generator:
        pin_cost = ep.regcache.register(
            ("recv", rst.src, rst.tag, rst.nbytes), rst.nbytes
        )
        if pin_cost > 0:
            ep.spend(pin_cost)
        yield from ep.send_control(rst.src, _new(CtsPacket, (rst.seq, ep.rank)))
        # The receiver's best approximation of transfer start is its CTS.
        rst.remaining = rst.nbytes
        rst.xfer_id = ep.monitor.xfer_begin(rst.nbytes)

    def on_fin_to_receiver(
        self, ep: "Endpoint", rst: "RecvState", data: object
    ) -> None:
        ep.monitor.xfer_end(rst.xfer_id, rst.nbytes)
        rst.req.complete(_new(Status, (rst.src, rst.tag, rst.nbytes)), data)
