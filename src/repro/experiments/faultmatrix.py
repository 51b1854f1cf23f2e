"""Fault-matrix robustness sweep: fault kinds x wire protocols.

Runs a tiny NAS LU job under every combination of an injected fault kind
(drop / dup / reorder / instrumentation loss) and a wire protocol
(eager / pipelined / rget / rput), with the reliable transport armed for
packet faults and a watchdog guarding every cell.  Each cell checks the
framework's internal report invariants
(:func:`repro.faults.check_run_invariants`): the point of the matrix is
that a degraded fabric degrades the *bounds* (toward Case 3), never the
report algebra.

Doubles as the CI smoke::

    python -m repro.experiments.faultmatrix --quick
"""

from __future__ import annotations

import argparse
import dataclasses
import typing

from repro.faults import arm_faults, check_run_invariants
from repro.mpisim.config import MpiConfig, openmpi_like
from repro.runtime.launcher import run_app

#: Wire protocols under test.  The rendezvous configs force every message
#: through the long-message path (``eager_limit=0``) so tiny NAS traffic
#: still exercises them.
PROTOCOL_CONFIGS: "dict[str, MpiConfig]" = {
    "eager": MpiConfig(name="eager", eager_limit=1 << 30),
    "pipelined": openmpi_like(eager_limit=0, name="pipelined"),
    "rget": openmpi_like(leave_pinned=True, eager_limit=0, name="rget"),
    "rput": MpiConfig(name="rput", rndv_mode="rput", eager_limit=0),
}

#: Fault kinds under test (parse_fault_spec strings).
FAULT_SPECS: "dict[str, str]" = {
    "drop": "drop=0.1",
    "dup": "dup=0.1",
    "reorder": "reorder=0.1",
    "stamp-loss": "events=0.2,ring=256",
}


@dataclasses.dataclass
class MatrixCell:
    """Outcome of one (fault kind, protocol) combination."""

    fault: str
    protocol: str
    status: str  # "ok" | watchdog reason | "error: ..."
    transfers: int
    case3: int
    dropped: int
    duplicated: int
    reordered: int
    violations: list[str]

    @property
    def passed(self) -> bool:
        return self.status == "ok" and not self.violations


def run_cell(
    fault: str,
    protocol: str,
    seed: int = 0,
    klass: str = "S",
    nprocs: int = 2,
    niter: int = 1,
) -> MatrixCell:
    """Run one matrix cell: NAS LU tiny under one fault kind and protocol."""
    from repro.experiments.nas_char import nas_cell

    params, config, watchdog = arm_faults(
        FAULT_SPECS[fault], seed, PROTOCOL_CONFIGS[protocol])
    app, _, app_args = nas_cell("lu", klass, niter)
    try:
        result = run_app(
            app, nprocs, config=config, params=params,
            label=f"faultmatrix.{fault}.{protocol}",
            app_args=app_args, watchdog=watchdog,
        )
    except Exception as exc:
        return MatrixCell(fault, protocol, f"error: {type(exc).__name__}: {exc}",
                          0, 0, 0, 0, 0, [])
    violations = check_run_invariants(result, raise_on_error=False)
    injector = result.fabric.injector
    total = result.reports[0].total
    status = "ok" if result.watchdog is None else result.watchdog.reason
    return MatrixCell(
        fault=fault,
        protocol=protocol,
        status=status,
        transfers=total.transfer_count,
        case3=total.case_counts.get(3, 0),
        dropped=injector.packets_dropped,
        duplicated=injector.packets_duplicated,
        reordered=injector.packets_reordered,
        violations=violations,
    )


def fault_matrix(
    faults: "typing.Sequence[str] | None" = None,
    protocols: "typing.Sequence[str] | None" = None,
    seed: int = 0,
    klass: str = "S",
    nprocs: int = 2,
    niter: int = 1,
) -> list[MatrixCell]:
    """Run the full (fault, protocol) grid; cells are independent."""
    cells = []
    for fault in faults or FAULT_SPECS:
        for protocol in protocols or PROTOCOL_CONFIGS:
            cells.append(run_cell(fault, protocol, seed=seed, klass=klass,
                                  nprocs=nprocs, niter=niter))
    return cells


def render_fault_matrix(cells: "typing.Sequence[MatrixCell]",
                        title: str = "fault matrix") -> str:
    """Fixed-width table of the matrix outcomes."""
    lines = [
        title,
        f"  {'fault':<12}{'protocol':<12}{'status':<12}"
        f"{'xfers':>6}{'case3':>6}{'drop':>6}{'dup':>5}{'reord':>6}  checks",
    ]
    for c in cells:
        checks = "ok" if not c.violations else f"{len(c.violations)} VIOLATION(S)"
        lines.append(
            f"  {c.fault:<12}{c.protocol:<12}{c.status:<12}"
            f"{c.transfers:>6}{c.case3:>6}{c.dropped:>6}{c.duplicated:>5}"
            f"{c.reordered:>6}  {checks}"
        )
        for v in c.violations:
            lines.append(f"    ! {v}")
    return "\n".join(lines)


def main(argv: "typing.Sequence[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.faultmatrix",
        description="Robustness smoke: fault kinds x wire protocols on a "
        "tiny NAS LU job, checking the internal report invariants.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--klass", default="S", choices=["S", "W", "A", "B"])
    parser.add_argument("--np", dest="nprocs", type=int, default=2)
    parser.add_argument("--niter", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="alias for the defaults (tiny job); kept so CI "
                        "invocations self-describe")
    args = parser.parse_args(argv)
    cells = fault_matrix(seed=args.seed, klass=args.klass,
                         nprocs=args.nprocs, niter=args.niter)
    print(render_fault_matrix(
        cells, f"fault matrix (LU class {args.klass}, {args.nprocs} ranks)"))
    failed = [c for c in cells if not c.passed]
    if failed:
        print(f"\n{len(failed)} of {len(cells)} cells failed")
        return 1
    print(f"\nall {len(cells)} cells completed with invariants intact")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
