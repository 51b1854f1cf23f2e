"""Simulated ARMCI: one-sided remote memory access (paper Sec. 4.4).

ARMCI "focuses on one-sided communication, which does not require explicit
coordination of sender and receiver, and is inherently non-blocking".  On
the simulated fabric its operations map directly onto RDMA verbs:

* ``put`` / ``nbput``  -> RDMA Write into the target's registered region;
* ``get`` / ``nbget``  -> RDMA Read from the target's region;
* ``acc`` / ``nbacc``  -> accumulate: an RDMA Write plus a (modeled)
  target-side combine;
* ``wait`` / ``wait_all`` / ``fence`` -- completion and ordering;
* ``barrier`` / ``msg_allreduce`` -- the small message layer real ARMCI
  applications use alongside RMA.

Because a non-blocking ARMCI transfer is pure NIC DMA after the post, the
instrumentation sees ``XFER_BEGIN`` inside the posting call and
``XFER_END`` in a later ``wait`` -- bounding case 2 with all interleaved
computation available for overlap.  That is why the paper's non-blocking
MG code reports ~99% maximum overlap (Fig. 19).
"""

import repro

__getattr__, __dir__ = repro._lazy_surface(__name__, {
    "api": ("ArmciConfig", "ArmciEndpoint", "Region"),
    "handles": ("NbHandle",),
    "runtime": ("ArmciContext", "run_armci_app"),
    "strided": ("StridedSpec",),
})
