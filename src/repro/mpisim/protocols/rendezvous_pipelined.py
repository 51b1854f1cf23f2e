"""Pipelined RDMA-Write rendezvous (Open MPI 1.0 default long-message path).

"Initially, a combined send request plus first fragment descriptor is sent
which has to be acknowledged by the receiver.  Once the acknowledgment has
arrived, the sender pipelines the remaining fragments using a scheduling
algorithm." (paper Sec. 3.5.)  Fragments may stripe across multiple rails.

Stamping is per data-transfer operation (per fragment):

* fragment 0 rides with the RTS through the send channel -- the sender
  stamps its ``XFER_BEGIN`` at post (inside ``Isend``) and its
  ``XFER_END`` when the local send completion is drained; the receiver
  sees only an END-only event (case 3);
* the remaining fragments are RDMA Writes typically both begun and
  completed inside ``MPI_Wait`` (case 1 -- zero overlap), which is why
  "the pipelined RDMA scheme is only able to overlap the initial
  fragment" (Fig. 4);
* the receiver approximates the bulk transfer with ``XFER_BEGIN`` at its
  ACK and ``XFER_END`` at the sender's FIN.
"""

from __future__ import annotations

import typing

from repro.mpisim.endpoint import SendDone
from repro.mpisim.packets import CtsPacket, FinPacket, RtsPacket
from repro.mpisim.protocols.base import RendezvousProtocol
from repro.mpisim.status import Status

_new = tuple.__new__  # per-message records C-level, as in netsim.nic

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.mpisim.endpoint import Endpoint, RecvState, SendState


class PipelinedRdmaProtocol(RendezvousProtocol):
    mode = "pipelined"

    # -- sender -------------------------------------------------------------
    def start_send(self, ep: "Endpoint", st: "SendState") -> typing.Generator:
        frag0 = min(float(ep.config.frag_size), st.nbytes)
        # Fragment 0 goes through the send channel: bounce-buffer copy + post.
        ep.spend(ep.params.copy_time(frag0))
        ep.spend(ep.params.post_cost)
        frag0_sent = SendDone(ep, ep.monitor.xfer_begin(frag0), frag0)
        yield from ep.sync()
        ep.post_send_channel(
            st.dest,
            frag0 + ep.control_size,
            _new(RtsPacket, (st.seq, ep.rank, st.tag, st.nbytes, frag0,
                             st.data, st.req.context)),
            context=frag0_sent,
        )

    def on_cts(self, ep: "Endpoint", st: "SendState") -> typing.Generator:
        """The receiver acknowledged: schedule the remaining fragments.

        Typically drained inside ``MPI_Wait`` -- "It then schedules
        additional fragments which do not get overlapped."
        """
        remaining = st.nbytes - min(float(ep.config.frag_size), st.nbytes)
        if remaining <= 0:
            # Single-fragment message: nothing left to write.
            st.req.complete()
            ep.sends.pop(st.seq, None)
            return
        frag_size = float(ep.config.frag_size)
        offsets = _fragments(remaining, frag_size)
        st.frags_pending = len(offsets)
        for frag_bytes in offsets:
            # Pipelined on-the-fly registration of each fragment (this is
            # the setup cost the pipeline exists to hide); never cached.
            ep.spend(ep.params.pin_time(frag_bytes))
            ep.spend(ep.params.post_cost)
            xid = ep.monitor.xfer_begin(frag_bytes)

            def on_written(
                xid: int = xid, frag_bytes: float = frag_bytes
            ) -> "typing.Generator | None":
                ep.monitor.xfer_end(xid, frag_bytes)
                st.frags_pending -= 1
                if st.frags_pending == 0:
                    return self._finish_send(ep, st)
                return None

            yield from ep.sync()
            rail = ep.next_rail()
            rail.post_rdma_write(
                ep.nic_for(st.dest, rail.port),
                frag_bytes,
                context=on_written,
            )

    @staticmethod
    def _finish_send(ep: "Endpoint", st: "SendState") -> typing.Generator:
        """All fragments placed: tell the receiver, finish the send."""
        yield from ep.send_control(
            st.dest,
            _new(FinPacket, (st.seq, ep.rank, False, st.data)),
        )
        ep.sends.pop(st.seq, None)
        st.req.complete()

    def on_fin_to_sender(self, ep: "Endpoint", st: "SendState") -> None:
        raise AssertionError("pipelined rendezvous sends no FIN to the sender")

    # -- receiver -------------------------------------------------------------
    def start_recv(
        self,
        ep: "Endpoint",
        rst: "RecvState",
        frag_nbytes: float,
        frag_data: object,
    ) -> typing.Generator:
        # Copy fragment 0 out of the pre-registered buffers; END-only event.
        if frag_nbytes > 0:
            ep.spend(ep.params.copy_time(frag_nbytes))
            ep.monitor.xfer_end_only(frag_nbytes)
        rst.remaining = rst.nbytes - frag_nbytes
        if rst.remaining <= 0:
            # Whole message came with the RTS; still acknowledge so the
            # sender's request can finish.
            yield from ep.send_control(
                rst.src, _new(CtsPacket, (rst.seq, ep.rank)))
            ep.recvs.pop((rst.src, rst.seq), None)
            rst.req.complete(
                _new(Status, (rst.src, rst.tag, rst.nbytes)), frag_data)
            return
        # Pin the receive buffer and acknowledge; the ACK is the receiver's
        # best approximation of when the bulk transfer starts.
        pin_cost = ep.regcache.register(
            ("recv", rst.src, rst.tag, rst.nbytes), rst.remaining
        )
        if pin_cost > 0:
            ep.spend(pin_cost)
        yield from ep.send_control(rst.src, _new(CtsPacket, (rst.seq, ep.rank)))
        rst.xfer_id = ep.monitor.xfer_begin(rst.remaining)

    def on_fin_to_receiver(
        self, ep: "Endpoint", rst: "RecvState", data: object
    ) -> None:
        ep.monitor.xfer_end(rst.xfer_id, rst.remaining)
        rst.req.complete(_new(Status, (rst.src, rst.tag, rst.nbytes)), data)


def _fragments(total: float, frag_size: float) -> list[float]:
    """Split ``total`` bytes into pipeline fragments of ``frag_size``."""
    out: list[float] = []
    left = total
    while left > 0:
        take = min(frag_size, left)
        out.append(take)
        left -= take
    return out
