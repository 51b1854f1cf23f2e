"""Launch N simulated ranks and harvest their overlap reports.

``run_app`` is the simulated ``mpiexec``: it builds one engine, one
fabric, one endpoint+monitor per rank (a :class:`RankSet`), drives every
rank's generator to completion, and finalizes the monitors into
per-process :class:`~repro.core.report.OverlapReport` objects -- the
paper's "output file ... generated for each process".
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
        config: "typing.Any",
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


def build_monitor(
    fabric: Fabric,
    rank: int,
    config: "typing.Any",
    table: XferTable,
    clock: "typing.Any",
    init_call: str,
    processor_factory: "typing.Callable | None" = None,
    metrics: "MetricsRegistry | None" = None,
    collect_trace: bool = False,
) -> "tuple[Monitor | NullMonitor, TraceSink | None]":
    """One rank's monitor (and trace sink), whatever library it serves.

    Degraded-instrumentation knobs (stamp loss, bounded ring) are derived
    from the fabric's injector, per rank.  ``init_call`` is the library's
    init routine (``MPI_Init`` / ``ARMCI_Init``): interval attribution is
    anchored at startup, as the real framework does inside it (this is
    also where the transfer-time table would be read from disk).
    """
    if not config.instrument:
        return NullMonitor(), None
    injector = fabric.injector
    degraded = injector is not None and injector.plan.degrades_instrumentation
    ring_capacity = injector.plan.ring_capacity if degraded else 0
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
    sink = None
    if collect_trace:
        sink = TraceSink()
        sink.attach(monitor)
    monitor.call_enter(init_call)
    monitor.call_exit(init_call)
    return monitor, sink


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
    """Build one simulated MPI rank: monitor, endpoint, context (and sink).

    The MPI stack builder of :class:`RankSet`.  The parts share one
    :class:`~repro.sim.engine.RankClock`: endpoint and context spend CPU
    on it, the monitor stamps from it.
    """
    clock = RankClock(engine.now)
    monitor, sink = build_monitor(
        fabric, rank, config, table, clock, "MPI_Init",
        processor_factory, metrics, collect_trace,
    )
    endpoint = Endpoint(engine, fabric, rank, nprocs, config, monitor, clock)
    if metrics is not None and config.resilience is not None:
        endpoint.attach_metrics(metrics, {"rank": str(rank)})
    return monitor, endpoint, RankContext(engine, endpoint), sink


def _stack_builder(config: "typing.Any") -> "typing.Callable":
    """The per-library half of a launch, chosen by the config's type.

    A library is a stack builder ``(engine, fabric, rank, nprocs, config,
    table, processor_factory, metrics, collect_trace) -> (monitor,
    endpoint, context, sink)`` plus its context's ``finalize()``
    generator; everything else about a launch is :class:`RankSet`'s.
    """
    if isinstance(config, MpiConfig):
        return build_rank_stack
    # At first use: an MPI job never loads the ARMCI package.
    from repro.armci.runtime import armci_stack_builder

    return armci_stack_builder()


def shards_refusal(config: "typing.Any", **observers: object) -> "str | None":
    """Why a job cannot run on the sharded engine (``None``: it can).

    The sharded launcher raises it as a ``ValueError``.  ``observers``
    are the job's ``telemetry`` / ``metrics`` / ``watchdog``; any value
    but ``None`` counts as armed.
    """
    if config is not None and not isinstance(config, MpiConfig):
        return (
            "shards: an ARMCI job cannot be sharded -- its ranks share one "
            "region directory (every put and get resolves its target array "
            "there), and that cannot be partitioned across engines; run it "
            "single-process"
        )
    for name, value in observers.items():
        if value is not None:
            return (
                f"shards: {name} is not supported on the sharded engine (it "
                "assumes one engine, and a faulted run always carries a "
                "watchdog); run single-process or drop the option"
            )
    return None


class RankSet:
    """The ranks one engine owns: their stacks, processes and reports.

    The one place a simulated rank is assembled and started --
    :func:`run_app` builds every rank of the job with it, a
    :class:`repro.sim.parallel.ShardWorker` its own slice -- so a sharded
    run cannot drift from the single-process run it owes bit-identical
    reports to.  All stacks are built first, then all processes spawned,
    both in ascending rank order (the order fixes the engine's event
    keys).  Everything per-rank is a dict keyed by rank.
    """

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        ranks: "typing.Iterable[int]",
        nprocs: int,
        config: "typing.Any",
        table: XferTable,
        app: AppFn,
        app_args: tuple = (),
        processor_factory: "typing.Callable | None" = None,
        metrics: "MetricsRegistry | None" = None,
        collect_trace: bool = False,
    ) -> None:
        self.engine = engine
        self.monitors: "dict[int, Monitor | NullMonitor]" = {}
        self.endpoints: "dict[int, typing.Any]" = {}
        self.contexts: "dict[int, typing.Any]" = {}
        self.sinks: "dict[int, TraceSink | None]" = {}
        build = _stack_builder(config)
        for rank in ranks:
            monitor, endpoint, context, sink = build(
                engine, fabric, rank, nprocs, config, table,
                processor_factory, metrics, collect_trace,
            )
            self.monitors[rank] = monitor
            self.endpoints[rank] = endpoint
            self.contexts[rank] = context
            self.sinks[rank] = sink
        #: Simulation time at which each rank's code finished.
        self.finish_times = dict.fromkeys(self.contexts, 0.0)
        #: Each rank's application return value.
        self.returns: "dict[int, object]" = dict.fromkeys(self.contexts)

        def rank_main(rank: int) -> typing.Generator:
            context = self.contexts[rank]
            result = yield from app(context, *app_args)
            # The job ends when the engine gets here.
            yield from context.finalize()
            self.finish_times[rank] = engine.now
            self.returns[rank] = result
            return result

        self.procs = {
            rank: engine.process(rank_main(rank)) for rank in self.contexts
        }

    def raise_if_stuck(self) -> None:
        """The deadlock error: the event store drained with ranks blocked."""
        stuck = sum(1 for proc in self.procs.values() if proc.is_alive)
        if stuck:
            raise RuntimeError(
                f"deadlock: {stuck} rank(s) never finished "
                "(blocked on communication that cannot arrive)"
            )

    def finalize(self, label: str) -> "dict[int, OverlapReport | None]":
        """Finalize every monitor at ``engine.now``, the job's global end.

        Monitors read their rank's clock, but wall_time and the closing
        computation interval run to the *global* end: an early finisher
        idles until the slowest rank is done.  (A rank the watchdog
        stopped mid-call may already be past it, and keeps its own time.)
        A shard worker sets ``engine.now`` to the global last-event time
        first -- its own clock sits at its last fence.
        """
        end = self.engine.now
        reports: "dict[int, OverlapReport | None]" = {}
        for rank, monitor in self.monitors.items():
            clock = self.contexts[rank].clock
            clock.now = max(clock.now, end)
            reports[rank] = (monitor.finalize(rank=rank, label=label)
                             if isinstance(monitor, Monitor) else None)
        return reports


def run_app(
    app: AppFn,
    nprocs: int,
    config: "typing.Any | None" = None,
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
    shard_backend: str = "process",
    shard_partition: "list[list[int]] | None" = None,
    shard_hosts: "typing.Sequence | None" = None,
    shard_transport: "typing.Any | None" = None,
    tracer: "Tracer | None" = None,
) -> RunResult:
    """Run ``app(ctx, *app_args)`` on ``nprocs`` simulated ranks.

    ``config`` names the library: an :class:`~repro.mpisim.config.MpiConfig`
    (the default) gives every rank an MPI stack, an
    :class:`~repro.armci.api.ArmciConfig` an ARMCI one; observers, watchdog
    and result are the same either way.
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
    ``shards=N`` runs the job on the sharded engine
    (:func:`repro.sim.parallel.run_app_sharded`): ``shard_backend``,
    ``shard_partition``, ``shard_hosts`` and ``shard_transport`` are its
    ``backend`` / ``partition`` / ``hosts`` / ``transport``.
    ``tracer`` (optional :class:`~repro.tracing.Tracer`) records host-time
    phase spans -- ``launcher.build`` / ``launcher.run`` /
    ``launcher.finalize`` here, coordinator and per-shard spans in the
    sharded path -- with zero cost and bit-identical reports when absent.
    """
    if nprocs < 1:
        raise ValueError("need at least one rank")
    # There is one fence protocol (barrier rounds).  The keyword survives,
    # pinned to its one value, only because the byte-frozen
    # bench/workloads.py passes it; the [benchmark] PR of ROADMAP item 5
    # removes the last mention.
    if shard_sync != "window":
        raise ValueError(
            f"shard_sync={shard_sync!r}: the 'null' fence protocol was "
            "removed (never resolvably faster, docs/performance.md); "
            "'window' is the only one"
        )
    if shards is not None:
        from repro.sim.parallel import run_app_sharded

        return run_app_sharded(
            app, nprocs, shards,
            config=config, params=params, xfer_table=xfer_table,
            label=label, app_args=app_args, seed=seed,
            record_transfers=record_transfers,
            telemetry=telemetry, metrics=metrics, watchdog=watchdog,
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
    ranks = RankSet(
        engine, fabric, range(nprocs), nprocs, config, table, app, app_args,
        processor_factory=processor_factory, metrics=metrics,
        collect_trace=telemetry is not None and telemetry.collect_trace,
    )
    if sp_build is not None:
        sp_build.end()
    sp_run = (tracer.begin("engine run", "launcher.run", nprocs=nprocs)
              if tracer is not None else None)
    diag = None
    if watchdog is None:
        engine.run()
        ranks.raise_if_stuck()
    else:
        # Progress = useful work, not engine activity: events stamped by
        # the monitors plus packets received by any NIC.  A retransmission
        # storm keeps the engine busy but moves neither, so it trips the
        # stall guard instead of spinning forever.
        monitors = list(ranks.monitors.values())

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
        procs = list(ranks.procs.values())
        if reason is None and any(p.is_alive for p in procs):
            # Event store drained with ranks still blocked: a true deadlock
            # (the unguarded path would have raised here).
            reason = "deadlock"
        if reason is not None:
            diag = diagnose(engine, reason, procs,
                            list(ranks.endpoints.values()))

    if sp_run is not None:
        sp_run.annotate(sim_time=engine.now).end()
    sp_fin = (tracer.begin("finalize reports", "launcher.finalize")
              if tracer is not None else None)
    reports = list(ranks.finalize(label).values())
    finish_times = list(ranks.finish_times.values())
    result = RunResult(
        reports=reports,
        returns=list(ranks.returns.values()),
        rank_finish_times=finish_times,
        elapsed=max(finish_times),
        config=config,
        fabric=fabric,
    )
    result.watchdog = diag
    #: Per-rank ground-truth computation intervals (bound validation).
    result.compute_logs = [ctx.compute_log for ctx in ranks.contexts.values()]
    if telemetry is not None:
        from repro.telemetry.collect import RankTelemetry, TelemetryResult
        from repro.telemetry.windows import WindowedProcessor

        per_rank = []
        for rank, monitor in ranks.monitors.items():
            if not isinstance(monitor, Monitor):
                continue
            processor = monitor.processor
            assert isinstance(processor, WindowedProcessor)
            per_rank.append(
                RankTelemetry(
                    rank=rank,
                    series=processor.series(rank=rank, label=label),
                    sink=ranks.sinks[rank],
                    names=monitor.names,
                )
            )
        result.telemetry = TelemetryResult(per_rank, table, telemetry)
    if sp_fin is not None:
        sp_fin.end()
    return result
