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

import typing

import repro

if typing.TYPE_CHECKING:
    from repro.armci.api import ArmciConfig, ArmciEndpoint, Region
    from repro.armci.handles import NbHandle
    from repro.armci.runtime import ArmciContext, ArmciRunResult, run_armci_app
    from repro.armci.strided import StridedSpec

__all__ = [
    "ArmciConfig",
    "ArmciContext",
    "ArmciEndpoint",
    "ArmciRunResult",
    "NbHandle",
    "Region",
    "StridedSpec",
    "run_armci_app",
]

__getattr__, __dir__ = repro._lazy_surface(__name__, {
    "api": ("ArmciConfig", "ArmciEndpoint", "Region"),
    "handles": ("NbHandle",),
    "runtime": ("ArmciContext", "ArmciRunResult", "run_armci_app"),
    "strided": ("StridedSpec",),
})
