"""Simulated cluster interconnect substrate.

Models the parts of an InfiniBand-style user-level network that determine
computation-communication overlap:

* **NIC DMA engines** (:mod:`repro.netsim.nic`): once a descriptor is
  posted, data moves without host-CPU involvement -- the OS-bypass
  property the paper's introduction builds on;
* **verbs** -- send-channel, RDMA Write, and RDMA Read operations with
  completion-queue semantics (:mod:`repro.netsim.nic`);
* **a latency + bandwidth cost model** with per-NIC wire serialization
  (:mod:`repro.netsim.fabric`);
* **registered memory** with pinning costs and an MRU registration cache,
  the mechanism behind Open MPI's ``mpi_leave_pinned``
  (:mod:`repro.netsim.memory`).

Everything above this layer (MPI protocols, ARMCI, the progress engine)
lives in :mod:`repro.mpisim` and :mod:`repro.armci`.
"""

import repro

__getattr__, __dir__ = repro._lazy_surface(__name__, {
    "fabric": ("Fabric",),
    "memory": ("RegistrationCache",),
    "nic": ("CompletionEntry", "CompletionKind", "InboundPacket", "Nic"),
    "params": ("NetworkParams",),
})
