"""CLI: time-resolved telemetry for one simulated run, or an offline rollup.

Run mode simulates one NAS cell with windowed collection + trace capture
and writes the full telemetry layout (per-rank files, a Perfetto-loadable
``trace.json``, and ``rollup.json``), then renders rank 0's time series
as an ASCII plot and the cluster rollup summary::

    python -m repro.tools.timeline --benchmark lu --klass S --np 4 --out out/
    python -m repro.tools.timeline --benchmark sp --klass A --np 9 \\
        --width 2e-4 --ground-truth

Rollup mode merges previously written per-rank telemetry files (any rank
count, constant memory) without running anything::

    python -m repro.tools.timeline --rollup out/telemetry.rank*.json

See ``docs/telemetry.md`` for the file layouts and window semantics.
"""

from __future__ import annotations

import argparse
import typing

from repro.analysis.textplot import DEFAULT_TIMELINE_METRICS, timeline_plot
from repro.experiments.nas_char import MPI_BENCHMARKS, nas_cell
from repro.telemetry import (
    TelemetryConfig,
    check_windowed_bounds,
    render_windowed_validation,
    rollup_files,
    write_run_telemetry,
)
from repro.telemetry.windows import WINDOW_METRICS


def _parse_metrics(text: str) -> list[str]:
    names = [m.strip() for m in text.split(",") if m.strip()]
    unknown = [m for m in names if m not in WINDOW_METRICS]
    if unknown or not names:
        raise argparse.ArgumentTypeError(
            f"metrics must be from {list(WINDOW_METRICS)}, got {text!r}"
        )
    return names


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.timeline",
        description="Time-resolved overlap telemetry: run one simulation "
        "with windowed collection and Perfetto export, or roll up "
        "previously written per-rank telemetry files.",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--benchmark", choices=sorted(MPI_BENCHMARKS),
                      help="NAS cell to simulate")
    mode.add_argument("--rollup", nargs="+", metavar="FILE",
                      help="merge existing telemetry.rank*.json files "
                      "instead of running a simulation")
    parser.add_argument("--klass", default="S", choices=["S", "W", "A", "B"])
    parser.add_argument("--np", dest="nprocs", type=int, default=4)
    parser.add_argument("--niter", type=int, default=2)
    parser.add_argument("--width", type=float, default=None,
                        help="window width in simulated seconds "
                        "(default: the telemetry default)")
    parser.add_argument("--max-windows", type=int, default=None,
                        help="bounded ring capacity per rank")
    parser.add_argument("--ground-truth", action="store_true",
                        help="record physical transfers: adds wire tracks "
                        "to the trace and prints the windowed bound check")
    parser.add_argument("--rank", type=int, default=0,
                        help="which rank's series to plot")
    parser.add_argument("--metrics", type=_parse_metrics,
                        default=list(DEFAULT_TIMELINE_METRICS),
                        help="comma-separated window metrics to plot")
    parser.add_argument("--out", default="telemetry_out",
                        help="output directory (run mode)")
    parser.add_argument("--no-plot", action="store_true",
                        help="skip the ASCII time-series plot")
    return parser


def _run_mode(args: argparse.Namespace) -> int:
    from repro.runtime.launcher import run_app

    app, config, app_args = nas_cell(args.benchmark, args.klass, args.niter)
    overrides = {}
    if args.width is not None:
        overrides["window_width"] = args.width
    if args.max_windows is not None:
        overrides["max_windows"] = args.max_windows
    telemetry_cfg = TelemetryConfig(**overrides)
    label = f"{args.benchmark}.{args.klass}.{args.nprocs}"
    result = run_app(
        app, args.nprocs, config=config, label=label, app_args=app_args,
        record_transfers=args.ground_truth, telemetry=telemetry_cfg,
    )
    assert result.telemetry is not None
    written = write_run_telemetry(result, args.out)

    series = result.telemetry.series(args.rank)
    print(f"{label}: {result.elapsed * 1e3:.3f} ms simulated, "
          f"{len(series)} windows of {series.width * 1e3:.3g} ms "
          f"for rank {args.rank}")
    if not args.no_plot:
        print()
        print(timeline_plot(series.deltas(), args.metrics,
                            title=f"{label} rank {args.rank} "
                            "(per-window seconds)"))
    if args.ground_truth:
        checks = check_windowed_bounds(result, args.rank, series)
        print()
        print(render_windowed_validation(
            checks, title=f"windowed bounds vs ground truth (rank {args.rank})"
        ))
        bad = [c for c in checks if not c.holds]
        if bad:
            print(f"WARNING: {len(bad)} window(s) violated the bounds")
    print()
    print(rollup_files(written["ranks"]).render_text())
    total = sum(len(paths) for paths in written.values())
    print(f"\nwrote {total} files to {args.out}/ "
          "(per-rank telemetry, trace.json for ui.perfetto.dev, rollup.json)")
    return 0


def _rollup_mode(paths: typing.Sequence[str]) -> int:
    rollup = rollup_files(paths)
    print(rollup.render_text())
    return 0


def main(argv: typing.Sequence[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    if args.rollup:
        return _rollup_mode(args.rollup)
    return _run_mode(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
