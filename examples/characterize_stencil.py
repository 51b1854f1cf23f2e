#!/usr/bin/env python
"""Instrument your own application: a 2-D halo-exchange stencil.

Shows the framework's application-facing features on user code rather
than a NAS kernel: monitoring sections (which phase loses time to
non-overlapped communication?), per-message-size breakdown, pause/resume
around untimed setup, and the halo phase's two Sec. 2.3 quantities: time
certainly hidden (min overlap) and time provably not hidden (xfer_time
minus max overlap).

Run:  python examples/characterize_stencil.py
"""

import math

from repro.analysis import render_size_breakdown
from repro.mpisim import mvapich2_like
from repro.runtime import run_app

GRID = 2048  # global grid side (doubles)
STEPS = 8
TAG_HALO = 5


def stencil_app(ctx):
    """Jacobi-style sweep on a 1-D strip decomposition."""
    rows = GRID // ctx.size
    halo_bytes = GRID * 8
    up = ctx.rank - 1 if ctx.rank > 0 else None
    down = ctx.rank + 1 if ctx.rank < ctx.size - 1 else None
    compute_time = rows * GRID * 6 / 400e6  # 6 flops/point at 400 Mflop/s

    # Untimed setup (mesh generation): excluded via pause/resume.
    ctx.monitor.pause()
    yield from ctx.compute(50e-3)
    ctx.monitor.resume()

    for _step in range(STEPS):
        with ctx.section("halo"):
            reqs = []
            for nb in (up, down):
                if nb is not None:
                    reqs.append((yield from ctx.comm.irecv(nb, TAG_HALO)))
            for nb in (up, down):
                if nb is not None:
                    reqs.append(
                        (yield from ctx.comm.isend(nb, TAG_HALO, halo_bytes,
                                                   bufkey=("halo", nb)))
                    )
            # Interior points don't need the halo: compute them now, while
            # the ghost rows travel.
            yield from ctx.compute(compute_time * (rows - 2) / rows)
            yield from ctx.comm.waitall(reqs)
        # Boundary rows after the halo arrives.
        yield from ctx.compute(compute_time * 2 / rows)
        with ctx.section("reduction"):
            residual = yield from ctx.comm.allreduce(1.0 / (ctx.rank + 1), 8)
    return residual


def main():
    result = run_app(stencil_app, nprocs=4, config=mvapich2_like(),
                     label="stencil")
    report = result.report(0)
    print(report.render_text())
    print()
    print(render_size_breakdown(report, "rank 0, by message size:"))
    print()
    halo = report.sections["halo"]
    saved = halo.guaranteed_overlap_time
    lost = halo.min_nonoverlapped_time
    print(f"halo phase: guaranteed savings from overlap  {saved * 1e3:.3f} ms")
    print(f"            provably non-overlapped comm     {lost * 1e3:.3f} ms")
    if lost > saved:
        print("-> the halo exchange is the place to restructure "
              "(try smaller strips, more interior work, or probes).")
    else:
        print("-> latency hiding in the halo phase is working.")
    assert not math.isnan(saved)


if __name__ == "__main__":
    main()
