"""CLI: one-command paper reproduction.

Runs every figure's experiment driver directly (no pytest needed) and
writes a consolidated ``PAPER_RESULTS.md``; ``--quick`` shrinks the sizes
for a fast pass.  :data:`SECTIONS` holds each figure's points and renderer,
and ``tests/test_paper_claims.py`` checks the paper's claims on those points.

Figures are independent, so they fan across a process pool (``--jobs``)
and their rendered text is cached on disk keyed by content
(``.repro_cache`` by default; see ``docs/performance.md``).  A rerun
after an interruption, or with a different ``--only`` subset, only
simulates what is missing.

Example::

    python -m repro.tools.paper --out PAPER_RESULTS.md
    python -m repro.tools.paper --quick --only fig05,fig19
    python -m repro.tools.paper --jobs 4 --no-cache
"""

from __future__ import annotations

import argparse
import collections
import os
import time
import typing
from functools import partial

from repro.analysis.tables import (
    render_micro_series,
    render_nas_char,
    render_overhead,
    render_sp_tuning,
)
from repro.experiments.faultmatrix import fault_matrix, render_fault_matrix
from repro.experiments.micro import overlap_sweep
from repro.experiments.nas_char import characterize_matrix, characterize_mg
from repro.experiments.overhead import overhead_suite
from repro.experiments.runner import CliSweep, Task, add_sweep_arguments
from repro.experiments.sp_tuning import sp_tuning
from repro.mpisim.config import openmpi_like

MB = 1024 * 1024
LONG_SWEEP = (0.0, 0.5e-3, 1.0e-3, 1.5e-3)
SHORT_SWEEP = (0.0, 10e-6, 20e-6, 40e-6)

#: What ``--quick`` shrinks: measured iterations per micro point, NAS
#: iterations per cell, the classes of Figs. 10-13, the class of Fig. 20.
Sizes = collections.namedtuple("Sizes", "iters niter klasses overhead_klass")
SIZES = {False: Sizes(40, 2, ("S", "W", "A"), "A"),
         True: Sizes(10, 1, ("S", "A"), "S")}

#: One figure: ``points(sizes)`` computes it and ``render(points)`` prints
#: it.  ``points`` takes its grid as keywords (``sweep``, ``procs``, ...),
#: so the same figure can be computed on other cells.
Section = collections.namedtuple("Section", "points render")


def _micro(pattern, nbytes, leave_pinned, sweep, side, title):
    return Section(
        lambda s, sweep=sweep: overlap_sweep(
            pattern, nbytes, sweep, openmpi_like(leave_pinned=leave_pinned),
            iters=s.iters),
        partial(render_micro_series, side=side,
                title=f"{title} ({side}, {pattern})"))


def _nas(bench, procs, title):
    return Section(
        lambda s, procs=procs: characterize_matrix(
            bench, s.klasses, procs, niter=s.niter),
        partial(render_nas_char, title=title))


SECTIONS = {
    "fig03": _micro("isend_irecv", 10 * 1024, False, SHORT_SWEEP, "sender",
                    "Fig 3: eager 10KB"),
    "fig04": _micro("isend_recv", MB, False, LONG_SWEEP, "sender",
                    "Fig 4: 1MB pipelined"),
    "fig05": _micro("isend_recv", MB, True, LONG_SWEEP, "sender",
                    "Fig 5: 1MB direct"),
    "fig06": _micro("send_irecv", MB, False, LONG_SWEEP, "receiver",
                    "Fig 6: 1MB pipelined"),
    "fig07": _micro("send_irecv", MB, True, LONG_SWEEP, "receiver",
                    "Fig 7: 1MB direct"),
    "fig08": _micro("isend_irecv", MB, False, LONG_SWEEP, "sender",
                    "Fig 8: 1MB pipelined"),
    "fig09": _micro("isend_irecv", MB, True, LONG_SWEEP, "sender",
                    "Fig 9: 1MB direct"),
    "fig10": _nas("bt", (4, 9), "Fig 10: NAS BT / Open MPI"),
    "fig11": _nas("cg", (4, 8), "Fig 11: NAS CG / Open MPI"),
    "fig12": _nas("lu", (4, 8), "Fig 12: NAS LU / MVAPICH2"),
    "fig13": _nas("ft", (4, 8), "Fig 13: NAS FT / MVAPICH2"),
    "fig14_18": Section(
        lambda s, klass="A", procs=(4, 9): [
            sp_tuning(klass, n, niter=s.niter) for n in procs],
        partial(render_sp_tuning, scope="section", title="Figs 14-18: SP "
                "original vs Iprobe-modified (section scope)")),
    "fig19": Section(
        lambda s, klass="A", procs=(4, 8), niter=1: [
            characterize_mg(klass, n, blocking, niter=niter)
            for n in procs for blocking in (True, False)],
        partial(render_nas_char, title="Fig 19: NAS MG / ARMCI")),
    "fig20": Section(
        lambda s, cells=(("cg", 4), ("lu", 4)): overhead_suite(
            cells=tuple((b, s.overhead_klass, n) for b, n in cells),
            niter=s.niter),
        partial(render_overhead, title="Fig 20: instrumentation overhead")),
    # Beyond the paper: the robustness appendix.  A degraded fabric
    # (drops / dups / reorders / lost stamps) must degrade the bounds
    # toward Case 3, never the report algebra.
    "robustness": Section(
        lambda s: fault_matrix(seed=0, klass="S", nprocs=2, niter=s.niter),
        partial(render_fault_matrix, title="Robustness appendix: fault "
                "kinds x wire protocols (NAS LU, watchdog-guarded, internal "
                "invariants checked)")),
}


def build_sections(quick: bool) -> "dict[str, typing.Callable[[], str]]":
    """``{key: zero-arg callable -> the section's text}``, in print order."""
    return {key: partial(_render_section, key, quick) for key in SECTIONS}


def _render_section(key: str, quick: bool) -> str:
    """Worker: build one figure's text block (module-level: picklable)."""
    section = SECTIONS[key]
    return section.render(section.points(SIZES[quick]))


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.paper",
        description="Regenerate the paper's evaluation in one command.",
    )
    parser.add_argument("--out", default="PAPER_RESULTS.md")
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweeps/classes for a fast pass")
    parser.add_argument("--only", default=None,
                        help="comma-separated figure keys (e.g. fig05,fig19)")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="worker processes for independent figures "
                        "(default: CPU count; 1 = serial)")
    add_sweep_arguments(parser)
    return parser


def main(argv: typing.Sequence[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    keys = list(SECTIONS)
    if args.only:
        wanted = {k.strip() for k in args.only.split(",")}
        unknown = wanted - set(keys)
        if unknown:
            parser.error(f"unknown figure keys: {sorted(unknown)}; "
                         f"choose from {sorted(keys)}")
        keys = [k for k in keys if k in wanted]

    blocks = [
        "# Reproduced evaluation "
        f"({'quick' if args.quick else 'standard'} sizes)",
        "",
        "Generated by `python -m repro.tools.paper`; see EXPERIMENTS.md for "
        "the paper-vs-measured discussion.",
    ]
    t0 = time.perf_counter()
    sweep = CliSweep(args, "paper", "paper reproduction",
                     figures=len(keys), jobs=args.jobs)
    cache = sweep.cache
    print(f"running {len(keys)} figures "
          f"(jobs={args.jobs}, cache={'off' if cache is None else cache.root})",
          flush=True)
    tasks = [Task(_render_section, (key, args.quick)) for key in keys]
    texts = sweep.run(tasks, args.jobs)
    for key, text in zip(keys, texts):
        blocks.append(f"\n## {key}\n\n```\n{text}\n```")
    elapsed = time.perf_counter() - t0
    blocks.append(f"\n_(regenerated in {elapsed:.1f} s of host time)_")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(blocks) + "\n")
    cached = f", {cache.hits} cached" if cache is not None else ""
    print(f"wrote {args.out} ({len(keys)} figures{cached}, {elapsed:.1f}s)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
