"""CLI: the Sec.-3 overlap microbenchmark.

Example::

    python -m repro.tools.micro --pattern isend_recv --size 1048576 \\
        --library openmpi --leave-pinned --computes 0,0.5e-3,1e-3,1.5e-3
    python -m repro.tools.micro --pattern isend_irecv --size 10240 --plot
"""

from __future__ import annotations

import argparse
import typing

from repro.analysis.tables import render_micro_series
from repro.analysis.textplot import ascii_plot
from repro.experiments.micro import PATTERNS, overlap_sweep
from repro.mpisim.config import LIBRARY_NAMES, library_config
from repro.tools import finite_non_negative


def _parse_computes(text: str) -> list[float]:
    return [finite_non_negative(c) for c in text.split(",") if c.strip()]


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.micro",
        description="Two-rank computation-communication overlap sweep.",
    )
    parser.add_argument("--pattern", choices=PATTERNS, default="isend_irecv")
    parser.add_argument("--size", type=finite_non_negative,
                        default=1024 * 1024,
                        help="message size in bytes")
    parser.add_argument("--computes", type=_parse_computes,
                        default="0,0.25e-3,0.5e-3,1e-3,1.5e-3",
                        help="comma-separated inserted-computation seconds")
    parser.add_argument("--library", choices=LIBRARY_NAMES, default="openmpi")
    parser.add_argument("--leave-pinned", action="store_true",
                        help="Open MPI: select the direct-RDMA rendezvous")
    parser.add_argument("--iters", type=int, default=50)
    parser.add_argument("--side", choices=["sender", "receiver", "both"],
                        default="both")
    parser.add_argument("--plot", action="store_true",
                        help="ASCII-plot the max-overlap curves")
    return parser


def main(argv: typing.Sequence[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.iters < 1:
        parser.error(f"--iters must be >= 1, got {args.iters}")
    computes = args.computes
    config = library_config(args.library, args.leave_pinned)
    points = overlap_sweep(
        args.pattern, args.size, computes, config, iters=args.iters
    )
    sides = ["sender", "receiver"] if args.side == "both" else [args.side]
    for side in sides:
        print(render_micro_series(
            points, side,
            f"{args.pattern} {int(args.size)}B / {config.name} ({side})",
        ))
        print()
    if args.plot and len(computes) >= 2:
        series = {
            f"{side} max%": [p.max_pct(side) for p in points] for side in sides
        }
        print(ascii_plot(series, [c * 1e3 for c in computes],
                         title="max overlap (%) vs compute (ms)"))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
