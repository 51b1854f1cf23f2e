"""CLI: run NAS benchmark cells and write per-process overlap reports.

``--np`` takes a single rank count or a comma-separated grid; grid cells
are independent simulations, so they fan across a process pool
(``--jobs``) and are cached on disk by content (``.repro_cache`` by
default; see ``docs/performance.md``).

Example::

    python -m repro.tools.nas --benchmark lu --klass A --np 4 --niter 2 \\
        --report-dir out/
    python -m repro.tools.nas --benchmark sp --klass A --np 9 --modified
    python -m repro.tools.nas --benchmark mg --klass B --np 8 --nonblocking
    python -m repro.tools.nas --benchmark cg --klass A --np 4,8,16 --jobs 3
"""

from __future__ import annotations

import argparse
import json
import pathlib
import typing

from repro.analysis.tables import render_size_breakdown
from repro.core.report import OverlapReport
from repro.experiments.nas_char import MPI_BENCHMARKS, nas_cell
from repro.experiments.runner import (
    CliSweep,
    FailedTask,
    Task,
    add_sweep_arguments,
)
from repro.faults import parse_fault_spec


def _run_cell(
    benchmark: str,
    klass: str,
    nprocs: int,
    niter: int,
    library: str,
    modified: bool,
    nonblocking: bool,
    emit_metrics: bool = False,
    faults: "str | None" = None,
    fault_seed: int = 0,
) -> dict:
    """Worker: one (benchmark, class, np) cell; returns a plain-data payload.

    Module-level and returning only picklable values (report dicts, not
    ``RunResult`` -- that holds the live fabric) so it can cross a process
    pool and live in the result cache.  With ``emit_metrics`` the run
    carries a :class:`~repro.metrics.MetricsRegistry` and the payload
    gains the rendered OpenMetrics text plus the JSON snapshot.
    ``faults`` is a :func:`repro.faults.plan.parse_fault_spec` string,
    armed by :func:`repro.faults.plan.arm_faults` (reliable transport for
    packet faults, and a watchdog so a wedged cell terminates with a
    partial report plus diagnostic instead of hanging the sweep).
    """
    from repro.faults import arm_faults
    from repro.runtime.launcher import run_app
    from repro.tracing.span import current_tracer

    # Installed ambiently by run_tasks (never passed in the argument
    # tuple: that tuple is the content-hash cache key shared with the
    # service, and a tracer argument would invalidate every cached cell).
    tracer = current_tracer()

    registry = None
    if emit_metrics:
        from repro.metrics import MetricsRegistry

        registry = MetricsRegistry()

    app, config, app_args = nas_cell(benchmark, klass, niter, library,
                                     modified=modified, nonblocking=nonblocking)
    params, config, watchdog = arm_faults(faults, fault_seed, config)
    label = f"{benchmark}.{klass}.{nprocs}"
    result = run_app(app, nprocs, config=config, params=params, label=label,
                     app_args=app_args, metrics=registry,
                     watchdog=watchdog, tracer=tracer)

    payload = {
        "label": label,
        "elapsed": result.elapsed,
        "reports": [
            rep.to_dict() if rep is not None else None
            for rep in result.reports
        ],
    }
    injector = result.fabric.injector
    if injector is not None:
        payload["faults"] = {
            "spec": faults,
            "seed": fault_seed,
            "packets_dropped": injector.packets_dropped,
            "packets_duplicated": injector.packets_duplicated,
            "packets_reordered": injector.packets_reordered,
        }
    if result.watchdog is not None:
        payload["watchdog"] = result.watchdog.render_text()
    if registry is not None:
        from repro.metrics import render_openmetrics

        payload["openmetrics"] = render_openmetrics(registry)
        payload["metrics_snapshot"] = registry.snapshot()
    return payload


def _parse_np(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--np wants an integer or comma-separated integers, got {text!r}"
        ) from None
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"invalid --np grid {text!r}")
    return values


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.nas",
        description="Run a NAS benchmark on the simulated cluster with the "
        "overlap instrumentation enabled.",
    )
    parser.add_argument("--benchmark", required=True,
                        choices=sorted(MPI_BENCHMARKS) + ["mg"])
    parser.add_argument("--klass", default="A", choices=["S", "W", "A", "B"],
                        help="NPB problem class")
    parser.add_argument("--np", dest="nprocs", type=_parse_np, default=[4],
                        help="simulated rank count, or a comma-separated "
                        "grid (e.g. 4,9,16) run as independent cells")
    parser.add_argument("--niter", type=int, default=2,
                        help="iterations (scaled down from the NPB defaults)")
    parser.add_argument("--library", choices=["paper", "openmpi", "mvapich2"],
                        default="paper",
                        help="'paper' uses the pairing from the paper's Sec. 4")
    parser.add_argument("--modified", action="store_true",
                        help="SP only: apply the Iprobe overlap fix")
    parser.add_argument("--nonblocking", action="store_true",
                        help="MG only: use non-blocking ARMCI calls")
    parser.add_argument("--report-dir", default=None,
                        help="write per-process JSON reports here")
    parser.add_argument("--sizes", action="store_true",
                        help="also print the message-size breakdown")
    parser.add_argument("--rank", type=int, default=0,
                        help="which rank's report to print")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for a --np grid (1 = serial)")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="inject fabric/instrumentation faults, e.g. "
                        "'drop=0.05,dup=0.01,reorder=0.02' or "
                        "'events=0.2,ring=256' (see repro.faults.plan); "
                        "packet faults auto-arm the reliable transport and "
                        "a watchdog")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the deterministic fault streams")
    parser.add_argument("--on-error", choices=["raise", "continue"],
                        default="raise",
                        help="'continue' turns a crashed/failed grid cell "
                        "into a reported failure instead of aborting the "
                        "sweep")
    add_sweep_arguments(parser)
    return parser


def main(argv: typing.Sequence[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        parse_fault_spec(args.faults or "", args.fault_seed)
    except ValueError as exc:
        parser.error(str(exc))
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    sweep = CliSweep(args, f"nas.{args.benchmark}", f"nas {args.benchmark}",
                     klass=args.klass, cells=len(args.nprocs), jobs=args.jobs)
    cache = sweep.cache
    tasks = [
        Task(_run_cell, (args.benchmark, args.klass, nprocs, args.niter,
                         args.library, args.modified, args.nonblocking,
                         args.metrics_dir is not None,
                         args.faults, args.fault_seed))
        for nprocs in args.nprocs
    ]
    payloads = sweep.run(tasks, args.jobs, on_error=args.on_error)

    failed = 0
    for i, payload in enumerate(payloads):
        if isinstance(payload, FailedTask):
            failed += 1
            if i:
                print("\n" + "=" * 66 + "\n")
            print(f"cell {payload.name} FAILED: {payload.error}")
            continue
        reports = [
            OverlapReport.from_dict(d) if d is not None else None
            for d in payload["reports"]
        ]
        if i:
            print("\n" + "=" * 66 + "\n")
        report = reports[args.rank]
        assert report is not None
        print(report.render_text())
        if args.sizes:
            print()
            print(render_size_breakdown(report, "by message size:"))
        print(f"\njob wall time: {payload['elapsed'] * 1e3:.3f} ms (simulated)")
        if "faults" in payload:
            f = payload["faults"]
            print(f"faults ({f['spec']!r}, seed {f['seed']}): "
                  f"dropped={f['packets_dropped']} "
                  f"duplicated={f['packets_duplicated']} "
                  f"reordered={f['packets_reordered']}")
        if "watchdog" in payload:
            print(payload["watchdog"])
            print("(reports above are PARTIAL: the watchdog stopped this run)")

        if args.report_dir:
            out = pathlib.Path(args.report_dir)
            out.mkdir(parents=True, exist_ok=True)
            for rank, rep in enumerate(reports):
                if rep is not None:
                    rep.save(out / f"{payload['label']}.rank{rank}.json")
            print(f"wrote {len(reports)} reports to {out}/")

        if args.metrics_dir and "openmetrics" in payload:
            mdir = pathlib.Path(args.metrics_dir)
            mdir.mkdir(parents=True, exist_ok=True)
            om_path = mdir / f"{payload['label']}.om"
            om_path.write_text(payload["openmetrics"], encoding="utf-8")
            with open(mdir / f"{payload['label']}.metrics.json", "w",
                      encoding="utf-8") as fh:
                json.dump(payload["metrics_snapshot"], fh, indent=1)
            print(f"wrote framework metrics to {om_path}")
    if cache is not None and cache.hits:
        print(f"({cache.hits} of {len(tasks)} cells served from cache)")
    if failed:
        print(f"{failed} of {len(tasks)} cells failed")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
