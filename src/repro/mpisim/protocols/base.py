"""Rendezvous protocol interface.

A protocol is a stateless strategy object; per-message state lives in
:class:`~repro.mpisim.endpoint.SendState` /
:class:`~repro.mpisim.endpoint.RecvState`.  Every hook runs *inside* the
polling progress engine or inside the initiating library call -- protocol
work consumes host CPU exactly where the real libraries spend it, which is
what makes the instrumentation timestamps meaningful.

A CPU cost is ``ep.spend(dt)`` (the rank's own clock; no event); anything
shared -- a NIC post above all -- is preceded by ``yield from ep.sync()``
(``ep.send_control`` does both).  A hook that posts is therefore a
generator coroutine; one that only stamps and completes a request (the
FIN hooks) is a plain method returning None.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.mpisim.endpoint import Endpoint, RecvState, SendState


class RendezvousProtocol:
    """Hooks invoked by the endpoint at protocol transition points."""

    #: Registry/config name of the scheme.
    mode: str = "abstract"

    def start_send(self, ep: "Endpoint", st: "SendState") -> typing.Generator:
        """Runs inside the initiating send call (``MPI_Isend``/``Send``)."""
        raise NotImplementedError

    def on_cts(self, ep: "Endpoint", st: "SendState") -> typing.Generator:
        """Sender received the receiver's CTS/ACK (drained in a poll)."""
        raise NotImplementedError

    def on_fin_to_sender(self, ep: "Endpoint", st: "SendState") -> None:
        """Sender received the receiver's completion notification."""
        raise NotImplementedError

    def start_recv(
        self,
        ep: "Endpoint",
        rst: "RecvState",
        frag_nbytes: float,
        frag_data: object,
    ) -> typing.Generator:
        """RTS matched a posted receive (inside whatever call polled it)."""
        raise NotImplementedError

    def on_fin_to_receiver(
        self, ep: "Endpoint", rst: "RecvState", data: object
    ) -> None:
        """Receiver learned all data was placed (pipelined / rput)."""
        raise NotImplementedError
