"""CLI: ground-truth validation of the overlap bounds.

Runs a chosen workload with transfer recording enabled, computes the true
overlapped transfer time per rank from the simulator's physical logs, and
checks it against the framework's derived bounds.

With ``--faults`` the workload runs on a degraded fabric instead: the
physical transfer log then contains retransmissions and duplicates that
have no instrumentation counterpart, so the check switches from
ground-truth bracketing to the framework's internal report invariants
(:func:`repro.faults.check_run_invariants`), with a watchdog guarding
against wedged runs.

Example::

    python -m repro.tools.validate --workload micro --size 1048576 \\
        --compute 1.5e-3 --library openmpi --leave-pinned
    python -m repro.tools.validate --workload sp --klass A --np 4 --modified
    python -m repro.tools.validate --faults drop=0.05,dup=0.02 --fault-seed 7
"""

from __future__ import annotations

import argparse
import typing

from repro.experiments.nas_char import nas_cell
from repro.experiments.validation import render_validation, validate_bounds
from repro.faults import arm_faults, check_run_invariants, parse_fault_spec
from repro.mpisim.config import LIBRARY_NAMES, library_config
from repro.nas.base import CpuModel
from repro.runtime.launcher import run_app
from repro.tools import finite_non_negative


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.validate",
        description="Check derived overlap bounds against the simulator's "
        "ground truth.",
    )
    parser.add_argument("--workload", choices=["micro", "sp"], default="micro")
    parser.add_argument("--size", type=finite_non_negative,
                        default=1024 * 1024,
                        help="micro: message size in bytes")
    parser.add_argument("--compute", type=finite_non_negative, default=1.5e-3,
                        help="micro: inserted computation in seconds")
    parser.add_argument("--iters", type=int, default=30)
    parser.add_argument("--library", choices=LIBRARY_NAMES, default="openmpi")
    parser.add_argument("--leave-pinned", action="store_true")
    parser.add_argument("--klass", default="A", choices=["S", "W", "A", "B"],
                        help="sp: problem class")
    parser.add_argument("--np", dest="nprocs", type=int, default=4,
                        help="sp: rank count")
    parser.add_argument("--modified", action="store_true",
                        help="sp: apply the Iprobe fix")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="run on a degraded fabric (see "
                        "repro.faults.plan.parse_fault_spec) and check the "
                        "internal report invariants instead of ground-truth "
                        "bracketing")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the deterministic fault streams")
    return parser


def main(argv: typing.Sequence[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        parse_fault_spec(args.faults or "", args.fault_seed)
    except ValueError as exc:
        parser.error(str(exc))
    if args.workload == "micro":
        size, compute, iters = args.size, args.compute, args.iters

        def app(ctx):
            for _ in range(iters):
                if ctx.rank == 0:
                    req = yield from ctx.comm.isend(1, 0, size, bufkey="b")
                    yield from ctx.compute(compute)
                    yield from ctx.comm.wait(req)
                else:
                    yield from ctx.comm.recv(0, 0)

        nprocs, app_args = 2, ()
        config = library_config(args.library, args.leave_pinned)
        title = (f"micro {int(size)}B / {compute * 1e3:g}ms compute / "
                 f"{config.name}")
    else:
        nprocs = args.nprocs
        app, config, app_args = nas_cell(
            "sp", args.klass, 2, cpu=CpuModel(10e9), modified=args.modified)
        title = (f"SP class {args.klass}, {args.nprocs} ranks, "
                 f"{'modified' if args.modified else 'original'}")
    params, config, watchdog = arm_faults(args.faults, args.fault_seed, config)
    result = run_app(app, nprocs, config=config, params=params,
                     record_transfers=True, watchdog=watchdog,
                     app_args=app_args)

    if args.faults:
        # Degraded fabric: retransmitted/duplicated physical transfers have
        # no stamping counterpart, so bracket checks do not apply; the
        # report invariants (bound ordering, bin reconstruction, rollup
        # exactness) must still hold on whatever was collected.
        violations = check_run_invariants(result, raise_on_error=False)
        injector = result.fabric.injector
        print(f"fault run ({args.faults!r}, seed {args.fault_seed}): {title}")
        print(f"  packets dropped={injector.packets_dropped} "
              f"duplicated={injector.packets_duplicated} "
              f"reordered={injector.packets_reordered}")
        if result.watchdog is not None:
            print(result.watchdog.render_text())
            print("  (reports are partial: the watchdog stopped the run)")
        if violations:
            print(f"\n{len(violations)} invariant violation(s):")
            for v in violations:
                print(f"  {v}")
            return 1
        print("all report invariants hold under the degraded stream.")
        return 0

    checks = validate_bounds(result)
    print(render_validation(checks, title))
    bad = [c for c in checks if not c.holds]
    if bad:
        print(f"\n{len(bad)} bound violation(s)!")
        return 1
    print("\nall bounds bracket the ground truth.")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
