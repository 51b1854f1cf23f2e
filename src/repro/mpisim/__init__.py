"""Simulated two-sided message-passing library (MPI-like).

This package models the communication-library layer of the paper's two MPI
subjects -- Open MPI 1.0.1 and MVAPICH2 0.6.5 -- on top of the
:mod:`repro.netsim` substrate:

* an **eager protocol** for short messages (copy through pre-registered
  bounce buffers, :mod:`repro.mpisim.protocols.eager`);
* three **rendezvous protocols** for long messages: Open MPI's default
  pipelined-RDMA scheme, the direct RDMA-Read scheme selected by
  ``mpi_leave_pinned`` (also MVAPICH2's zero-copy design), and a
  single-shot RDMA-Write variant
  (:mod:`repro.mpisim.protocols.rendezvous_pipelined` /
  ``rendezvous_rget`` / ``rendezvous_rput``);
* a **polling progress engine**: protocol state advances only while the
  host process executes library code (:mod:`repro.mpisim.progress`) -- the
  single-threaded, synchronous-completion architecture the paper cites as
  the cause of poor overlap;
* tag/source **matching** with posted and unexpected queues
  (:mod:`repro.mpisim.matching`);
* the application-facing :class:`~repro.mpisim.communicator.Comm` with
  point-to-point, probe, and collective operations, every public call
  instrumented through :class:`repro.core.monitor.Monitor`.

Applications are generator coroutines: ``yield from comm.send(...)``.
"""

import repro

__getattr__, __dir__ = repro._lazy_surface(__name__, {
    "config": ("MpiConfig", "mvapich2_like", "openmpi_like"),
    "communicator": ("Comm",),
    "request": ("Request",),
    "status": ("ANY_SOURCE", "ANY_TAG", "MpiError", "Status"),
})
