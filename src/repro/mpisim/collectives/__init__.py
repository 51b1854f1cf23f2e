"""Collective operations built on the point-to-point internals.

Each algorithm is a generator function taking the endpoint; the
:class:`~repro.mpisim.communicator.Comm` methods wrap them in a single
instrumented library call.  All internal message transfers still stamp
XFER events, so a collective's data movement is counted -- and, since it
begins and ends inside one call, it resolves to bounding case 1 (zero
overlap), exactly the behaviour behind the paper's FT analysis ("Most of
the communication in FT is done by the Alltoall collective ...  These
transfers do not get overlapped with computation").
"""

import typing

import repro

if typing.TYPE_CHECKING:
    from repro.mpisim.collectives.allgather import allgather
    from repro.mpisim.collectives.allreduce import allreduce
    from repro.mpisim.collectives.alltoall import alltoall, alltoallv
    from repro.mpisim.collectives.barrier import barrier
    from repro.mpisim.collectives.bcast import bcast
    from repro.mpisim.collectives.gather import gather, gatherv
    from repro.mpisim.collectives.reduce import reduce
    from repro.mpisim.collectives.reduce_scatter import reduce_scatter
    from repro.mpisim.collectives.scan import scan
    from repro.mpisim.collectives.scatter import scatter, scatterv

#: Tag space reserved for collectives (application tags must stay below).
COLL_TAG_BASE = 1 << 20

__all__ = [
    "COLL_TAG_BASE",
    "allgather",
    "allreduce",
    "alltoall",
    "alltoallv",
    "barrier",
    "bcast",
    "gather",
    "gatherv",
    "reduce",
    "reduce_scatter",
    "scan",
    "scatter",
    "scatterv",
]

__getattr__, __dir__ = repro._lazy_surface(__name__, {
    "allgather": ("allgather",),
    "allreduce": ("allreduce",),
    "alltoall": ("alltoall", "alltoallv"),
    "barrier": ("barrier",),
    "bcast": ("bcast",),
    "gather": ("gather", "gatherv"),
    "reduce": ("reduce",),
    "reduce_scatter": ("reduce_scatter",),
    "scan": ("scan",),
    "scatter": ("scatter", "scatterv"),
})
