"""NAS benchmark overlap characterization (Figs. 10-13 and 19).

"We characterized each NAS benchmark from the NPB 3.2 suite in one of the
three communication environments ...  BT and CG with Open MPI v1.0.1; LU,
FT and SP with MVAPICH2-0.6.5; and MG with ARMCI v1.1 ...  Each process
was individually monitored for overlap and we present data for process 0.
Data was gathered for different message size ranges." (Sec. 4.)
"""

from __future__ import annotations

import dataclasses
import typing

from repro.armci import ArmciConfig
from repro.core.report import OverlapReport
from repro.mpisim.config import (
    MpiConfig,
    library_config,
    mvapich2_like,
    openmpi_like,
)
from repro.nas.base import CpuModel
from repro.nas.bt import bt_app
from repro.nas.cg import cg_app
from repro.nas.ep import ep_app
from repro.nas.ft import ft_app
from repro.nas.is_ import is_app
from repro.nas.lu import lu_app
from repro.nas.mg import mg_app
from repro.nas.sp import sp_app
from repro.runtime.launcher import run_app

#: benchmark -> (app, library config factory) matching the paper's pairing.
MPI_BENCHMARKS: dict[str, tuple[typing.Callable, typing.Callable[[], MpiConfig]]] = {
    "bt": (bt_app, openmpi_like),
    "cg": (cg_app, openmpi_like),
    "lu": (lu_app, mvapich2_like),
    "ft": (ft_app, mvapich2_like),
    "sp": (sp_app, mvapich2_like),
    "ep": (ep_app, openmpi_like),
    "is": (is_app, mvapich2_like),
}



def nas_cell(
    benchmark: str,
    klass: str,
    niter: int | None,
    library: str = "paper",
    cpu: CpuModel | None = None,
    modified: bool = False,
    nonblocking: bool = False,
    lu_planes: int | None = None,
) -> "tuple[typing.Callable, typing.Any, tuple]":
    """What a NAS cell spec runs: ``(app, config, app_args)`` for ``run_app``.

    The one mapping every front end (CLIs, service, experiment drivers)
    goes through.  ``library="paper"`` is the paper's Sec.-4 pairing,
    anything else a :func:`~repro.mpisim.config.library_config` name; MG
    always runs on ARMCI.  ``modified`` is SP's Iprobe fix,
    ``nonblocking`` MG's non-blocking calls, ``lu_planes`` LU's pipeline
    depth.
    """
    if benchmark == "mg":
        return mg_app, ArmciConfig(), (klass, niter, cpu, not nonblocking)
    try:
        app, config_factory = MPI_BENCHMARKS[benchmark]
    except KeyError:
        raise ValueError(
            f"unknown NAS benchmark {benchmark!r}; choose from "
            f"{sorted(MPI_BENCHMARKS) + ['mg']}"
        ) from None
    config = config_factory() if library == "paper" else library_config(library)
    if benchmark == "lu":
        args: tuple = (klass, niter, cpu, lu_planes)
    elif benchmark == "ep":
        args = (klass, cpu, 1e-3)
    elif benchmark == "sp":
        args = (klass, niter, cpu, modified)
    else:
        args = (klass, niter, cpu)
    return app, config, args


@dataclasses.dataclass
class CharPoint:
    """Overlap characterization of one (benchmark, class, nprocs) cell."""

    benchmark: str
    klass: str
    nprocs: int
    variant: str  # "", "blocking", "nonblocking", "original", "modified"
    #: Report of process 0 (the paper presents process 0).
    report: OverlapReport
    elapsed: float

    @property
    def min_pct(self) -> float:
        return self.report.total.min_overlap_pct

    @property
    def max_pct(self) -> float:
        return self.report.total.max_overlap_pct


def characterize(
    benchmark: str,
    klass: str,
    nprocs: int,
    niter: int | None = 2,
    cpu: CpuModel | None = None,
    config: MpiConfig | None = None,
    lu_planes: int | None = None,
    shards: int | None = None,
) -> CharPoint:
    """Run one NAS benchmark cell and return its characterization.

    ``shards`` routes the cell through the sharded parallel-DES engine
    (:mod:`repro.sim.parallel`); reports are bit-identical to the
    single-process channel-delivery run by construction.
    """
    app, paper_config, args = nas_cell(
        benchmark, klass, niter, cpu=cpu, lu_planes=lu_planes)
    result = run_app(
        app, nprocs, config=config or paper_config,
        label=f"{benchmark}.{klass}.{nprocs}", app_args=args, shards=shards,
    )
    return CharPoint(benchmark, klass, nprocs, "", result.report(0), result.elapsed)


def characterize_matrix(
    benchmark: str,
    klasses: typing.Sequence[str],
    proc_counts: typing.Sequence[int],
    **kwargs: object,
) -> list[CharPoint]:
    """The full grid one paper figure plots (classes x processor counts)."""
    return [
        characterize(benchmark, klass, nprocs, **kwargs)  # type: ignore[arg-type]
        for klass in klasses
        for nprocs in proc_counts
    ]


def characterize_mg(
    klass: str,
    nprocs: int,
    blocking: bool,
    niter: int | None = 1,
    cpu: CpuModel | None = None,
) -> CharPoint:
    """One NAS-MG-on-ARMCI cell (Fig. 19: blocking vs non-blocking)."""
    app, config, args = nas_cell(
        "mg", klass, niter, cpu=cpu, nonblocking=not blocking)
    result = run_app(
        app, nprocs, config=config,
        label=f"mg.{klass}.{nprocs}.{'b' if blocking else 'nb'}", app_args=args,
    )
    variant = "blocking" if blocking else "nonblocking"
    return CharPoint("mg", klass, nprocs, variant, result.report(0), result.elapsed)
