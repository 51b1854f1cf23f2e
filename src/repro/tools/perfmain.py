"""CLI: build the a-priori transfer-time table (simulated ``perf_main``).

Example::

    python -m repro.tools.perfmain --out xfer_table.tsv
    python -m repro.tools.perfmain --latency-us 4 --bandwidth-mbs 900 \\
        --min-size 64 --max-size 4194304 --out fast_fabric.tsv
"""

from __future__ import annotations

import argparse
import sys
import typing

from repro.experiments.micro import build_xfer_table
from repro.netsim.params import NetworkParams
from repro.tools import finite_non_negative


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.perfmain",
        description="Measure one-way transfer times on the simulated fabric "
        "and write the table the instrumented library loads at init.",
    )
    parser.add_argument("--out", required=True,
                        help="output table path (TSV)")
    parser.add_argument("--latency-us", type=finite_non_negative, default=None,
                        help="fabric latency in microseconds")
    parser.add_argument("--bandwidth-mbs", type=finite_non_negative,
                        default=None,
                        help="fabric bandwidth in MB/s")
    parser.add_argument("--min-size", type=finite_non_negative, default=1.0,
                        help="smallest message size in bytes")
    parser.add_argument("--max-size", type=finite_non_negative,
                        default=8 * 1024 * 1024,
                        help="largest message size in bytes")
    parser.add_argument("--reps", type=int, default=4,
                        help="ping-pong repetitions per size")
    return parser


def main(argv: typing.Sequence[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error(f"--reps must be >= 1, got {args.reps}")
    if args.min_size <= 0 or args.max_size < args.min_size:
        print("error: need 0 < --min-size <= --max-size", file=sys.stderr)
        return 2
    overrides = {}
    if args.latency_us is not None:
        overrides["latency"] = args.latency_us * 1e-6
    if args.bandwidth_mbs is not None:
        overrides["bandwidth"] = args.bandwidth_mbs * 1e6
    try:
        params = NetworkParams(**overrides)
    except ValueError as exc:  # e.g. --bandwidth-mbs 0
        parser.error(str(exc))

    sizes = []
    size = args.min_size
    while size <= args.max_size:
        sizes.append(size)
        size *= 2
    table = build_xfer_table(params, sizes=sizes, path=args.out, reps=args.reps)
    print(f"wrote {len(sizes)} points to {args.out}")
    for s in (1024.0, 65536.0, 1048576.0):
        if args.min_size <= s <= args.max_size:
            print(f"  {int(s):>8} B -> {table.time_for(s) * 1e6:9.2f} us "
                  f"({table.bandwidth_for(s) / 1e6:7.1f} MB/s)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
