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

import repro

#: Tag space reserved for collectives (application tags must stay below).
COLL_TAG_BASE = 1 << 20

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
}, own=("COLL_TAG_BASE",))
