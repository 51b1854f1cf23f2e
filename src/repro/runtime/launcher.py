"""Launch N simulated ranks and harvest their overlap reports.

``run_app`` is the simulated ``mpiexec``: it builds one engine, one
fabric, one endpoint+monitor per rank, drives every rank's generator to
completion, and finalizes the monitors into per-process
:class:`~repro.core.report.OverlapReport` objects -- the paper's
"output file ... generated for each process".
"""

from __future__ import annotations

import typing

from repro.core.monitor import Monitor, NullMonitor
from repro.core.report import OverlapReport
from repro.core.trace import TraceSink
from repro.core.xfer_table import XferTable
from repro.faults.watchdog import diagnose
from repro.mpisim.config import MpiConfig
from repro.mpisim.endpoint import Endpoint
from repro.netsim.fabric import Fabric
from repro.netsim.params import NetworkParams
from repro.runtime.world import RankContext
from repro.sim import Engine
from repro.sim.engine import RankClock

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.watchdog import WatchdogConfig, WatchdogDiagnostic
    from repro.metrics import MetricsRegistry
    from repro.telemetry.collect import TelemetryConfig, TelemetryResult
    from repro.tracing import Tracer

AppFn = typing.Callable[..., typing.Generator]


class RunResult:
    """Outcome of one simulated job."""

    def __init__(
        self,
        reports: list[OverlapReport | None],
        returns: list[object],
        rank_finish_times: list[float],
        elapsed: float,
        config: MpiConfig,
        fabric: Fabric,
    ) -> None:
        #: Per-rank overlap reports (None when uninstrumented).
        self.reports = reports
        #: Per-rank application return values.
        self.returns = returns
        #: Simulation time at which each rank's code finished.
        self.rank_finish_times = rank_finish_times
        #: Job wall time: when the slowest rank finished.
        self.elapsed = elapsed
        self.config = config
        self.fabric = fabric
        #: Per-rank ground-truth computation intervals, filled by run_app.
        self.compute_logs: list[list[tuple[float, float]]] = []
        #: Time-resolved telemetry (set when run_app got a TelemetryConfig).
        self.telemetry: "TelemetryResult | None" = None
        #: Post-mortem snapshot when a watchdog stopped the run early
        #: (None for a run that completed normally).
        self.watchdog: "WatchdogDiagnostic | None" = None
        #: Per-shard execution statistics (sharded runs only, else None).
        self.shard_stats: "list[dict] | None" = None
        #: Synchronization-protocol statistics (sharded runs only).
        self.sync_stats: "dict | None" = None

    def report(self, rank: int = 0) -> OverlapReport:
        """The report of one rank (the paper presents "data for process 0")."""
        rep = self.reports[rank]
        if rep is None:
            raise ValueError("run was not instrumented")
        return rep


def default_xfer_table(params: NetworkParams) -> XferTable:
    """Analytic stand-in for the ``perf_main``-measured table.

    ``time(n) = (latency + per-message overhead) + n / bandwidth`` --
    exactly the raw network cost of one message in the simulator, which is
    what the real ``perf_main`` utility measures on the real fabric.
    Experiments that want the full measured pipeline use
    :func:`repro.experiments.micro.build_xfer_table`.
    """
    key = (params.latency, params.per_message_overhead, params.bandwidth)
    table = _xfer_table_cache.get(key)
    if table is None:
        sizes = [float(2**k) for k in range(0, 24)]
        table = XferTable.from_model(
            params.latency + params.per_message_overhead, params.bandwidth, sizes
        )
        if len(_xfer_table_cache) < 64:
            _xfer_table_cache[key] = table
    return table


#: Memo for :func:`default_xfer_table` -- sweeps re-run many apps on the
#: same parameters, and the table (and its internal memo) is immutable.
_xfer_table_cache: "dict[tuple[float, float, float], XferTable]" = {}


def build_rank_stack(
    engine: Engine,
    fabric: Fabric,
    rank: int,
    nprocs: int,
    config: MpiConfig,
    table: XferTable,
    processor_factory: "typing.Callable | None" = None,
    metrics: "MetricsRegistry | None" = None,
    collect_trace: bool = False,
) -> "tuple[Monitor | NullMonitor, Endpoint, RankContext, TraceSink | None]":
    """Build one simulated rank: monitor, endpoint, context (and sink).

    Shared by :func:`run_app` and the sharded launcher
    (:mod:`repro.sim.parallel`): a shard worker must assemble each rank
    *exactly* as the single-process path does, or reports stop being
    bit-comparable.  Degraded-instrumentation knobs (stamp loss, bounded
    ring) are derived from the fabric's injector, per rank.  The parts
    share one :class:`~repro.sim.engine.RankClock`: endpoint and context
    spend CPU on it, the monitor stamps from it.
    """
    injector = fabric.injector
    degraded = injector is not None and injector.plan.degrades_instrumentation
    ring_capacity = injector.plan.ring_capacity if degraded else 0
    monitor: Monitor | NullMonitor
    sink: TraceSink | None = None
    clock = RankClock(engine.now)
    if config.instrument:
        monitor = Monitor(
            clock=clock,
            xfer_table=table,
            queue_capacity=ring_capacity or config.queue_capacity,
            bin_edges=config.bin_edges,
            processor_factory=processor_factory,
            metrics=metrics,
            metrics_labels={"rank": str(rank)} if metrics is not None else None,
            stamp_loss=injector.stamp_loss(rank) if degraded else None,
            ring_mode=ring_capacity > 0,
        )
        if collect_trace:
            sink = TraceSink()
            sink.attach(monitor)
        # Anchor interval attribution at startup, as the real framework
        # does inside MPI_Init (this is also where the transfer-time
        # table would be read from disk).
        monitor.call_enter("MPI_Init")
        monitor.call_exit("MPI_Init")
    else:
        monitor = NullMonitor()
    endpoint = Endpoint(engine, fabric, rank, nprocs, config, monitor, clock)
    context = RankContext(engine, endpoint, monitor)
    return monitor, endpoint, context, sink


def run_app(
    app: AppFn,
    nprocs: int,
    config: MpiConfig | None = None,
    params: NetworkParams | None = None,
    xfer_table: XferTable | None = None,
    label: str = "",
    app_args: tuple = (),
    seed: int = 0,
    record_transfers: bool = False,
    telemetry: "TelemetryConfig | None" = None,
    metrics: "MetricsRegistry | None" = None,
    watchdog: "WatchdogConfig | None" = None,
    shards: int | None = None,
    shard_sync: str = "window",
    shard_strategy: str = "contiguous",
    shard_backend: str = "process",
    shard_partition: "list[list[int]] | None" = None,
    shard_hosts: "typing.Sequence | None" = None,
    shard_transport: "typing.Any | None" = None,
    tracer: "Tracer | None" = None,
) -> RunResult:
    """Run ``app(ctx, *app_args)`` on ``nprocs`` simulated ranks.

    ``seed`` feeds the fabric RNG (only relevant with latency jitter).
    ``telemetry`` enables time-resolved collection (windowed measures and,
    unless disabled, per-rank raw event capture for Perfetto export); the
    result's ``telemetry`` attribute then holds a
    :class:`~repro.telemetry.collect.TelemetryResult`.
    ``metrics`` enables framework self-observability: the engine and every
    rank's monitor stack register health metrics in the given
    :class:`~repro.metrics.MetricsRegistry` (per-rank metrics labeled
    ``rank="N"``); ``None`` keeps the nil fast path.
    ``watchdog`` arms the engine watchdog: instead of hanging (or
    raising on deadlock) a wedged run is stopped early, a
    :class:`~repro.faults.watchdog.WatchdogDiagnostic` is attached as
    ``result.watchdog``, and the monitors finalize normally -- partial
    reports resolve in-flight transfers under the paper's Case 3 bounds.
    Without a watchdog, raises whatever any rank's generator raises; a
    hang (every rank blocked with no scheduled events) surfaces as a
    deadlock error from the engine.
    ``tracer`` (optional :class:`~repro.tracing.Tracer`) records host-time
    phase spans -- ``launcher.build`` / ``launcher.run`` /
    ``launcher.finalize`` here, coordinator and per-shard spans in the
    sharded path -- with zero cost and bit-identical reports when absent.
    """
    if nprocs < 1:
        raise ValueError("need at least one rank")
    if shards is not None:
        from repro.sim.parallel import run_app_sharded

        return run_app_sharded(
            app, nprocs, shards,
            config=config, params=params, xfer_table=xfer_table,
            label=label, app_args=app_args, seed=seed,
            record_transfers=record_transfers,
            telemetry=telemetry, metrics=metrics, watchdog=watchdog,
            sync=shard_sync, strategy=shard_strategy,
            backend=shard_backend, partition=shard_partition,
            hosts=shard_hosts, transport=shard_transport,
            tracer=tracer,
        )
    config = config or MpiConfig()
    params = params or NetworkParams()
    table = xfer_table or default_xfer_table(params)

    processor_factory = None
    if telemetry is not None:
        from repro.telemetry.windows import WindowedProcessor

        def processor_factory(xt, edges):  # noqa: F811 - deliberate rebind
            return WindowedProcessor(
                xt, edges,
                window_width=telemetry.window_width,
                max_windows=telemetry.max_windows,
            )

    sp_build = (tracer.begin("build rank stacks", "launcher.build",
                             nprocs=nprocs)
                if tracer is not None else None)
    engine = Engine()
    if metrics is not None:
        engine.attach_metrics(metrics)
    if tracer is not None:
        engine.attach_tracer(tracer)
    fabric = Fabric(
        engine, params, nprocs, config.nics_per_node, seed=seed,
        record_transfers=record_transfers,
    )
    injector = fabric.injector
    if injector is not None and metrics is not None:
        injector.attach_metrics(metrics)
    monitors: list[Monitor | NullMonitor] = []
    contexts: list[RankContext] = []
    endpoints: list[Endpoint] = []
    sinks: list[TraceSink | None] = []
    for rank in range(nprocs):
        monitor, endpoint, context, sink = build_rank_stack(
            engine, fabric, rank, nprocs, config, table,
            processor_factory=processor_factory, metrics=metrics,
            collect_trace=telemetry is not None and telemetry.collect_trace,
        )
        if metrics is not None and config.resilience is not None:
            endpoint.attach_metrics(metrics, {"rank": str(rank)})
        monitors.append(monitor)
        endpoints.append(endpoint)
        sinks.append(sink)
        contexts.append(context)

    finish_times = [0.0] * nprocs
    returns: list[object] = [None] * nprocs

    def rank_main(rank: int) -> typing.Generator:
        result = yield from app(contexts[rank], *app_args)
        yield from contexts[rank].comm.finalize()
        yield from endpoints[rank].sync()  # the job ends when the engine gets here
        finish_times[rank] = engine.now
        returns[rank] = result
        return result

    procs = [engine.process(rank_main(rank)) for rank in range(nprocs)]
    if sp_build is not None:
        sp_build.end()
    sp_run = (tracer.begin("engine run", "launcher.run", nprocs=nprocs)
              if tracer is not None else None)
    diag = None
    if watchdog is None:
        engine.run()
        stuck = [p.name for p in procs if p.is_alive]
        if stuck:
            raise RuntimeError(
                f"deadlock: {len(stuck)} rank(s) never finished "
                "(blocked on communication that cannot arrive)"
            )
    else:
        # Progress = useful work, not engine activity: events stamped by
        # the monitors plus packets received by any NIC.  A retransmission
        # storm keeps the engine busy but moves neither, so it trips the
        # stall guard instead of spinning forever.
        def progress() -> int:
            stamped = sum(m.event_count for m in monitors)
            received = sum(
                nic.messages_received
                for node in range(nprocs)
                for nic in fabric.nics_of(node)
            )
            return stamped + received

        reason = engine.run_guarded(
            max_sim_time=watchdog.max_sim_time,
            stall_sim_time=watchdog.stall_sim_time,
            check_interval=watchdog.check_interval,
            progress=progress,
        )
        if reason is None and any(p.is_alive for p in procs):
            # Event store drained with ranks still blocked: a true deadlock
            # (the unguarded path would have raised here).
            reason = "deadlock"
        if reason is not None:
            diag = diagnose(engine, reason, procs, endpoints)

    if sp_run is not None:
        sp_run.annotate(sim_time=engine.now).end()
    sp_fin = (tracer.begin("finalize reports", "launcher.finalize")
              if tracer is not None else None)
    # Monitors read their rank's clock, but wall_time and the closing
    # computation interval run to the *global* end: an early finisher idles
    # until the slowest rank is done.  (A rank the watchdog stopped mid-call
    # may already be past it, and keeps its own time.)
    for context in contexts:
        context.clock.now = max(context.clock.now, engine.now)
    reports: list[OverlapReport | None] = []
    for rank, monitor in enumerate(monitors):
        if isinstance(monitor, Monitor):
            reports.append(monitor.finalize(rank=rank, label=label))
        else:
            reports.append(None)
    result = RunResult(
        reports=reports,
        returns=returns,
        rank_finish_times=finish_times,
        elapsed=max(finish_times),
        config=config,
        fabric=fabric,
    )
    result.watchdog = diag
    #: Per-rank ground-truth computation intervals (bound validation).
    result.compute_logs = [ctx.compute_log for ctx in contexts]
    if telemetry is not None:
        from repro.telemetry.collect import RankTelemetry, TelemetryResult
        from repro.telemetry.windows import WindowedProcessor

        per_rank = []
        for rank, monitor in enumerate(monitors):
            if not isinstance(monitor, Monitor):
                continue
            processor = monitor.processor
            assert isinstance(processor, WindowedProcessor)
            per_rank.append(
                RankTelemetry(
                    rank=rank,
                    series=processor.series(rank=rank, label=label),
                    sink=sinks[rank],
                    names=monitor.names,
                )
            )
        result.telemetry = TelemetryResult(per_rank, table, telemetry)
    if sp_fin is not None:
        sp_fin.end()
    return result
