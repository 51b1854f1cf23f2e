"""NAS Parallel Benchmark kernels (NPB 3.2), communication-faithful.

Each kernel reproduces the NPB benchmark's *communication structure* --
message sizes, counts, partners, and call shapes (blocking receive,
Irecv-compute-Wait, collectives) -- together with a calibrated
compute-time model per problem class, which is what the overlap
characterization of the paper's Sec. 4 depends on.  The numerical physics
is replaced by lightweight consistency arithmetic (verified in tests);
absolute Mop/s are out of scope (DESIGN.md Sec. 2).

Kernels: BT, CG, LU, FT, SP (MPI), MG (ARMCI), EP and IS (MPI; the paper
omits their plots -- EP barely communicates, IS behaves like FT).
"""

import repro

__getattr__, __dir__ = repro._lazy_surface(__name__, {
    "base": ("CpuModel", "square_grid_side"),
    "classes": ("CLASSES", "ProblemClass", "problem"),
})
