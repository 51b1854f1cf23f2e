"""Long-message rendezvous protocol implementations.

Three schemes, matching the designs the paper evaluates (Sec. 3.5):

* :mod:`~repro.mpisim.protocols.rendezvous_pipelined` -- Open MPI default:
  RTS carries the first fragment; after the receiver's ACK the sender
  pipelines the remaining fragments as RDMA Writes.
* :mod:`~repro.mpisim.protocols.rendezvous_rget` -- direct RDMA Read
  (Open MPI under ``mpi_leave_pinned``; MVAPICH2's zero-copy design).
* :mod:`~repro.mpisim.protocols.rendezvous_rput` -- single-shot RDMA
  Write after a CTS (an ablation variant).
"""

import typing

import repro

_REGISTRY = {
    "pipelined": "PipelinedRdmaProtocol",
    "rget": "RdmaReadProtocol",
    "rput": "RdmaWriteProtocol",
}


def make_protocol(mode: str) -> "RendezvousProtocol":
    """Instantiate the rendezvous protocol named ``mode``."""
    if mode not in _REGISTRY:
        raise ValueError(
            f"unknown rendezvous mode {mode!r}; choose from {sorted(_REGISTRY)}"
        )
    cls: typing.Any = __getattr__(_REGISTRY[mode])  # imports only this one
    return cls()


__getattr__, __dir__ = repro._lazy_surface(__name__, {
    "base": ("RendezvousProtocol",),
    "rendezvous_pipelined": ("PipelinedRdmaProtocol",),
    "rendezvous_rget": ("RdmaReadProtocol",),
    "rendezvous_rput": ("RdmaWriteProtocol",),
}, own=("make_protocol",))
