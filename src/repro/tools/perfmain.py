"""CLI: build the a-priori transfer-time table (simulated ``perf_main``).

Example::

    python -m repro.tools.perfmain --out xfer_table.tsv
    python -m repro.tools.perfmain --latency-us 4 --bandwidth-mbs 900 \\
        --min-size 64 --max-size 4194304 --out fast_fabric.tsv

``--compare --shards N`` turns the tool into the sharded engine's
referee: it runs one NAS workload single-process and on N shards and
prints a per-measure equality report (reports, finish times, compute
logs), so users can verify the sharded engine on their own workload
before trusting its numbers::

    python -m repro.tools.perfmain --compare --shards 2 --benchmark lu \\
        --klass S --np 4
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
    parser.add_argument("--out", default=None,
                        help="output table path (TSV); required unless "
                        "--compare is given")
    parser.add_argument("--compare", action="store_true",
                        help="instead of writing a table, run the given NAS "
                        "workload single-process and sharded and print a "
                        "per-measure equality report (requires --shards)")
    parser.add_argument("--benchmark", choices=("lu", "cg", "sp"),
                        default="lu", help="--compare workload kernel")
    parser.add_argument("--klass", default="S", help="--compare NAS class")
    parser.add_argument("--np", dest="nprocs", type=int, default=4,
                        help="--compare rank count")
    parser.add_argument("--niter", type=int, default=1,
                        help="--compare iteration count")
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
    parser.add_argument("--shards", type=int, default=None,
                        help="with --compare: shard count of the "
                        "sharded side (channel delivery on both sides)")
    return parser


def _compare(args: argparse.Namespace) -> int:
    """Run one workload single-process and sharded; print the equality report."""
    import time

    from repro.experiments.nas_char import nas_cell
    from repro.netsim.differential import compare_sharded, run_sharded_pair

    app, config, app_args = nas_cell(args.benchmark, args.klass, args.niter)

    t0 = time.perf_counter()
    single, sharded = run_sharded_pair(
        app, args.nprocs, args.shards, config=config, app_args=app_args,
        label=f"{args.benchmark}.{args.klass}.{args.nprocs}",
    )
    host_s = time.perf_counter() - t0
    deltas = compare_sharded(single, sharded)
    unequal = [d for d in deltas if not d.equal]

    width = max(len(d.measure) for d in deltas)
    print(f"differential: {args.benchmark}.{args.klass} np={args.nprocs} "
          f"niter={args.niter} (single vs {args.shards} shards, "
          f"{host_s:.2f} s host)")
    for d in deltas:
        mark = "==" if d.equal else "!="
        print(f"  {d.measure:<{width}}  {mark}")
        if not d.equal:
            print(f"    single: {d.fast!r}")
            print(f"    sharded: {d.packet!r}")
    n_eq = len(deltas) - len(unequal)
    print(f"{n_eq}/{len(deltas)} measures bit-identical"
          f"; sharded side simulated {sharded.elapsed * 1e3:.2f} ms")
    if unequal:
        print(f"FAIL: {len(unequal)} measure(s) differ -- the sharded engine "
              "is NOT safe on this workload; run without --shards and "
              "report a bug")
        return 1
    print("OK: the sharded engine is bit-identical on this workload")
    return 0


def main(argv: typing.Sequence[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error(f"--reps must be >= 1, got {args.reps}")
    if args.compare:
        if args.shards is None:
            print("error: --compare requires --shards N", file=sys.stderr)
            return 2
        return _compare(args)
    if args.out is None:
        print("error: --out is required (unless --compare is given)",
              file=sys.stderr)
        return 2
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
