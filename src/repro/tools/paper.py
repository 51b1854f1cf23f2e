"""CLI: one-command paper reproduction.

Runs every figure's experiment driver directly (no pytest needed) and
writes a consolidated ``PAPER_RESULTS.md``.  Sizes are the bench-suite
defaults; pass ``--quick`` for a fast smoke pass.

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
import os
import time
import typing

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
LONG_SWEEP = [0.0, 0.5e-3, 1.0e-3, 1.5e-3]
SHORT_SWEEP = [0.0, 10e-6, 20e-6, 40e-6]


def _micro_fig(fig: str, pattern: str, nbytes: float, leave_pinned: bool,
               side: str, sweep: list, iters: int) -> str:
    points = overlap_sweep(
        pattern, nbytes, sweep, openmpi_like(leave_pinned=leave_pinned),
        iters=iters,
    )
    return render_micro_series(points, side, f"{fig} ({side}, {pattern})")


def build_sections(quick: bool) -> "dict[str, typing.Callable[[], str]]":
    iters = 10 if quick else 40
    niter = 1 if quick else 2
    klasses = ["S", "A"] if quick else ["S", "W", "A"]

    return {
        "fig03": lambda: _micro_fig("Fig 3: eager 10KB", "isend_irecv",
                                    10 * 1024, False, "sender", SHORT_SWEEP, iters),
        "fig04": lambda: _micro_fig("Fig 4: 1MB pipelined", "isend_recv",
                                    MB, False, "sender", LONG_SWEEP, iters),
        "fig05": lambda: _micro_fig("Fig 5: 1MB direct", "isend_recv",
                                    MB, True, "sender", LONG_SWEEP, iters),
        "fig06": lambda: _micro_fig("Fig 6: 1MB pipelined", "send_irecv",
                                    MB, False, "receiver", LONG_SWEEP, iters),
        "fig07": lambda: _micro_fig("Fig 7: 1MB direct", "send_irecv",
                                    MB, True, "receiver", LONG_SWEEP, iters),
        "fig08": lambda: _micro_fig("Fig 8: 1MB pipelined", "isend_irecv",
                                    MB, False, "sender", LONG_SWEEP, iters),
        "fig09": lambda: _micro_fig("Fig 9: 1MB direct", "isend_irecv",
                                    MB, True, "sender", LONG_SWEEP, iters),
        "fig10": lambda: render_nas_char(
            characterize_matrix("bt", klasses, [4, 9], niter=niter),
            "Fig 10: NAS BT / Open MPI"),
        "fig11": lambda: render_nas_char(
            characterize_matrix("cg", klasses, [4, 8], niter=niter),
            "Fig 11: NAS CG / Open MPI"),
        "fig12": lambda: render_nas_char(
            characterize_matrix("lu", klasses, [4, 8], niter=niter),
            "Fig 12: NAS LU / MVAPICH2"),
        "fig13": lambda: render_nas_char(
            characterize_matrix("ft", klasses, [4, 8], niter=niter),
            "Fig 13: NAS FT / MVAPICH2"),
        "fig14_18": lambda: render_sp_tuning(
            [sp_tuning("A", n, niter=niter) for n in (4, 9)], "section",
            "Figs 14-18: SP original vs Iprobe-modified (section scope)"),
        "fig19": lambda: render_nas_char(
            [characterize_mg("A", n, blocking, niter=1)
             for n in (4, 8) for blocking in (True, False)],
            "Fig 19: NAS MG / ARMCI"),
        "fig20": lambda: render_overhead(
            overhead_suite(cells=(("cg", "S" if quick else "A", 4),
                                  ("lu", "S" if quick else "A", 4)),
                           niter=niter),
            "Fig 20: instrumentation overhead"),
        # Beyond the paper: the robustness appendix.  A degraded fabric
        # (drops / dups / reorders / lost stamps) must degrade the bounds
        # toward Case 3, never the report algebra.
        "robustness": lambda: render_fault_matrix(
            fault_matrix(seed=0, klass="S", nprocs=2, niter=niter),
            "Robustness appendix: fault kinds x wire protocols (NAS LU, "
            "watchdog-guarded, internal invariants checked)"),
    }


def _render_section(key: str, quick: bool) -> str:
    """Worker: build one figure's text block (module-level: picklable)."""
    return build_sections(quick)[key]()


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
    sections = build_sections(args.quick)
    if args.only:
        wanted = {k.strip() for k in args.only.split(",")}
        unknown = wanted - set(sections)
        if unknown:
            print(f"unknown figure keys: {sorted(unknown)}; "
                  f"choose from {sorted(sections)}")
            return 2
        sections = {k: v for k, v in sections.items() if k in wanted}

    blocks = [
        "# Reproduced evaluation "
        f"({'quick' if args.quick else 'standard'} sizes)",
        "",
        "Generated by `python -m repro.tools.paper`; see EXPERIMENTS.md for "
        "the paper-vs-measured discussion.",
    ]
    t0 = time.perf_counter()
    keys = list(sections)
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
    print(f"wrote {args.out} ({len(sections)} figures{cached}, {elapsed:.1f}s)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
