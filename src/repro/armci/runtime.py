"""Launcher for ARMCI applications (mirrors :mod:`repro.runtime.launcher`)."""

from __future__ import annotations

import typing

from repro.armci.api import ArmciConfig, ArmciEndpoint, Region
from repro.core.monitor import Monitor, NullMonitor
from repro.core.report import OverlapReport
from repro.core.xfer_table import XferTable
from repro.netsim.fabric import Fabric
from repro.netsim.params import NetworkParams
from repro.runtime.launcher import default_xfer_table
from repro.sim import Engine


class ArmciContext:
    """Everything one simulated ARMCI process sees."""

    def __init__(self, engine: Engine, endpoint: ArmciEndpoint) -> None:
        self.engine = engine
        self.armci = endpoint
        self.monitor = endpoint.monitor

    @property
    def rank(self) -> int:
        return self.armci.rank

    @property
    def size(self) -> int:
        return self.armci.size

    @property
    def now(self) -> float:
        return self.engine.now

    def compute(self, seconds: float) -> typing.Generator:
        """Spend user computation time (outside the library)."""
        if seconds < 0:
            raise ValueError(f"negative compute time {seconds!r}")
        if seconds > 0:
            yield self.engine.timeout(seconds)

    def malloc(self, name: str, shape: object, dtype: object = "float64") -> Region:
        """Create and register this rank's piece of a shared region."""
        import numpy as np

        return self.armci.register_region(name, np.zeros(shape, dtype=dtype))

    def section(self, name: str):
        return self.monitor.section(name)


class ArmciRunResult:
    """Outcome of one simulated ARMCI job."""

    def __init__(
        self,
        reports: list[OverlapReport | None],
        returns: list[object],
        elapsed: float,
        config: ArmciConfig,
        fabric: Fabric,
    ) -> None:
        self.reports = reports
        self.returns = returns
        self.elapsed = elapsed
        self.config = config
        self.fabric = fabric

    def report(self, rank: int = 0) -> OverlapReport:
        rep = self.reports[rank]
        if rep is None:
            raise ValueError("run was not instrumented")
        return rep


def run_armci_app(
    app: typing.Callable[..., typing.Generator],
    nprocs: int,
    config: ArmciConfig | None = None,
    params: NetworkParams | None = None,
    xfer_table: XferTable | None = None,
    label: str = "",
    app_args: tuple = (),
    metrics: "typing.Any | None" = None,
) -> ArmciRunResult:
    """Run ``app(ctx, *app_args)`` on ``nprocs`` simulated ARMCI ranks.

    ``metrics`` (an optional :class:`~repro.metrics.MetricsRegistry`)
    enables framework self-observability, exactly as in
    :func:`repro.runtime.launcher.run_app`.
    """
    if nprocs < 1:
        raise ValueError("need at least one rank")
    config = config or ArmciConfig()
    params = params or NetworkParams()
    table = xfer_table or default_xfer_table(params)

    engine = Engine()
    if metrics is not None:
        engine.attach_metrics(metrics)
    fabric = Fabric(engine, params, nprocs)
    directory: dict[tuple[int, str], Region] = {}
    monitors: list[Monitor | NullMonitor] = []
    contexts: list[ArmciContext] = []
    for rank in range(nprocs):
        monitor: Monitor | NullMonitor
        if config.instrument:
            monitor = Monitor(
                clock=engine,  # ARMCI ranks spend CPU through the event queue
                xfer_table=table,
                queue_capacity=config.queue_capacity,
                bin_edges=config.bin_edges,
                metrics=metrics,
                metrics_labels={"rank": str(rank)} if metrics is not None else None,
            )
            # Anchor interval attribution at startup (ARMCI_Init).
            monitor.call_enter("ARMCI_Init")
            monitor.call_exit("ARMCI_Init")
        else:
            monitor = NullMonitor()
        endpoint = ArmciEndpoint(engine, fabric, rank, nprocs, config, monitor, directory)
        monitors.append(monitor)
        contexts.append(ArmciContext(engine, endpoint))

    finish_times = [0.0] * nprocs
    returns: list[object] = [None] * nprocs

    def rank_main(rank: int) -> typing.Generator:
        result = yield from app(contexts[rank], *app_args)
        yield from contexts[rank].armci.finalize()
        finish_times[rank] = engine.now
        returns[rank] = result
        return result

    procs = [engine.process(rank_main(rank)) for rank in range(nprocs)]
    engine.run()
    stuck = [p for p in procs if p.is_alive]
    if stuck:
        raise RuntimeError(
            f"deadlock: {len(stuck)} ARMCI rank(s) never finished"
        )
    reports: list[OverlapReport | None] = []
    for rank, monitor in enumerate(monitors):
        if isinstance(monitor, Monitor):
            reports.append(monitor.finalize(rank=rank, label=label))
        else:
            reports.append(None)
    return ArmciRunResult(reports, returns, max(finish_times), config, fabric)
