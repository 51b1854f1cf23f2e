"""The traced pass: per-layer host-time metrics, measured from outside.

A layer is a module of ``src/repro``.  Nothing here reaches into the
program: each number comes from timing calls into public functions.

For the three ``run_app`` workloads the attribution is a *ladder* of
rungs, each adding one layer on top of the rung below:

====  ==================================================================
R0    bare ``Engine``: one coroutine per rank yielding timeouts until as
      many events have retired as R1 retires
R1    ``Engine`` + ``Fabric`` + NIC verbs: the workload's message
      schedule posted straight on the NICs, no ``mpisim``
R2    ``run_app`` with ``instrument=False``: adds ``mpisim``
R3    the job itself: adds ``core`` (monitor stamping, event queue,
      data processor)
R4    the job plus one observer (telemetry, metrics or tracing)
====  ==================================================================

``<layer>.delta_ms`` is the difference of two neighbouring rungs'
medians, so the deltas R0 + (R1-R0) + (R2-R1) + (R3-R2) sum to the job.
This is attribution by subtraction and therefore approximate: an upper
rung also changes how many engine events the lower layers see (R2
retires more events than R1), and that extra dispatch lands in the upper
layer's delta.  Isolated drivers (``core.replay_us_per_event``) bound a
delta from below.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import tempfile
import time
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from workloads import (HaloSharded, HaloSpec, PaperSweep, RunAppWorkload,
                           ServiceWorkload)

median = statistics.median


def timed(fn: "typing.Callable[[], object]") -> "tuple[float, typing.Any]":
    gc.collect()
    t0 = time.perf_counter()
    value = fn()
    return time.perf_counter() - t0, value


def repetitions(budget_s: float, cost_s: float, least: int, most: int) -> int:
    """How many repetitions of a ``cost_s`` block fit the budget."""
    return max(least, min(most, int(budget_s / max(cost_s, 1e-9))))


# ---------------------------------------------------------------------------
# Ladder rungs R0 and R1 (R2..R4 are plain run_app calls)
# ---------------------------------------------------------------------------
def rung_engine(ranks: int, n_events: int) -> int:
    """R0: retire about ``n_events`` timeouts on the bare engine.

    Returns the number of events the engine processed.
    """
    from repro.sim import Engine

    engine = Engine()
    per_rank = -(-n_events // ranks)

    def worker(delay: float) -> typing.Generator:
        timeout = engine.timeout
        for _ in range(per_rank):
            yield timeout(delay)

    for rank in range(ranks):
        # Rank-dependent periods keep the pending store interleaved the
        # way independent ranks keep it.
        engine.process(worker(1e-6 * (1.0 + rank / ranks)))
    engine.run()
    return engine.processed_count


class NetRun(typing.NamedTuple):
    events: int  # engine events retired
    messages: int  # messages the NICs sent


def rung_netsim(spec: "HaloSpec") -> NetRun:
    """R1: the halo message schedule on NIC verbs, without ``mpisim``.

    Eager messages are one verb each (RDMA write with notification for
    MVAPICH2, a send for Open MPI).  A rendezvous message is the pipelined
    protocol's wire traffic: RTS carrying fragment 0, CTS back, the
    remaining fragments as RDMA writes, FIN.  CPU costs the MPI library
    adds (copies, posts, polls) are ``mpisim``'s and are left out.
    """
    from repro.netsim.fabric import Fabric
    from repro.netsim.params import NetworkParams
    from repro.sim import Engine

    config = spec.config()
    params = NetworkParams()
    engine = Engine()
    fabric = Fabric(engine, params, spec.ranks, config.nics_per_node)
    ctl = params.control_packet_size
    eager = spec.nbytes <= config.eager_limit
    frag0 = min(float(config.frag_size), spec.nbytes)
    frags: "list[float]" = []
    left = spec.nbytes - frag0
    while left > 0:
        frags.append(min(float(config.frag_size), left))
        left -= frags[-1]
    if not eager and not frags:
        raise ValueError("single-fragment rendezvous is not modelled here")

    def rank_main(rank: int) -> typing.Generator:
        nic = fabric.nic(rank)
        peers = [fabric.nic((rank - 1) % spec.ranks),
                 fabric.nic((rank + 1) % spec.ranks)]
        received = sent = 0
        writes_left: "dict[int, int]" = {}
        for step in range(1, spec.steps + 1):
            for peer in peers:
                if not eager:
                    nic.post_send(peer, frag0 + ctl, "rts")
                elif config.eager_mode == "rdma_write":
                    nic.post_rdma_write(peer, spec.nbytes + ctl,
                                        context="done",
                                        notify_payload="eager")
                else:
                    nic.post_send(peer, spec.nbytes + ctl, "eager",
                                  context="done")
            yield engine.timeout(spec.compute_s)
            while received < 2 * step or sent < 2 * step:
                if nic.cq:
                    context = nic.cq.popleft().context
                    if context == "done":
                        sent += 1
                    elif context is not None:  # a fragment reached `context`
                        writes_left[context] -= 1
                        if writes_left[context] == 0:
                            nic.post_send(fabric.nic(context), ctl, "fin",
                                          context="done")
                elif nic.inbound:
                    packet = nic.inbound.popleft()
                    if packet.payload in ("eager", "fin"):
                        received += 1
                    elif packet.payload == "rts":
                        nic.post_send(fabric.nic(packet.src_node), ctl, "cts")
                    else:  # cts: pipeline the remaining fragments
                        writes_left[packet.src_node] = len(frags)
                        for size in frags:
                            nic.post_rdma_write(fabric.nic(packet.src_node),
                                                size, context=packet.src_node)
                else:
                    yield nic.wait_activity()

    for rank in range(spec.ranks):
        engine.process(rank_main(rank))
    engine.run()
    return NetRun(engine.processed_count, nic_messages(fabric))


def nic_messages(fabric: typing.Any) -> int:
    return sum(nic.messages_sent
               for node in range(fabric.num_nodes)
               for nic in fabric.nics_of(node))


# ---------------------------------------------------------------------------
# run_app workloads: the ladder
# ---------------------------------------------------------------------------
OBSERVERS = ("telemetry", "metrics", "tracing")


def _observer(name: str) -> "dict[str, object]":
    if name == "telemetry":
        from repro.telemetry.collect import TelemetryConfig

        return {"telemetry": TelemetryConfig(collect_trace=True)}
    if name == "metrics":
        from repro.metrics import MetricsRegistry

        return {"metrics": MetricsRegistry()}
    from repro.tracing import Tracer

    return {"tracer": Tracer(process="bench")}


def ladder(w: "RunAppWorkload", budget_s: float) -> "dict[str, float]":
    from repro.core.trace import replay_overlap
    from repro.netsim.params import NetworkParams
    from repro.runtime.launcher import default_xfer_table

    spec, spans = w.spec, w.spans
    bare = dataclasses.replace(spec.config(), instrument=False)
    net = rung_netsim(spec)  # also fixes how many events R0 retires
    rungs: "dict[str, tuple[str, typing.Callable[[], object]]]" = {
        "R0": ("sim", lambda: rung_engine(spec.ranks, net.events)),
        "R1": ("netsim", lambda: rung_netsim(spec)),
        "R2": ("mpisim", lambda: w.run(config=bare)),
        "R3": ("core", lambda: w.run()),
    }
    for name in OBSERVERS:
        rungs[f"R4.{name}"] = (name, lambda name=name: w.run(**_observer(name)))

    times: "dict[str, list[float]]" = {name: [] for name in rungs}
    last: "dict[str, typing.Any]" = {}
    order = list(rungs)
    rep = 0
    reps = 2
    started = time.perf_counter()
    while rep < reps:
        for name in (order if rep % 2 == 0 else reversed(order)):
            layer, fn = rungs[name]
            with spans.span(name, layer, rep=rep):
                seconds, last[name] = timed(fn)
            times[name].append(seconds)
        rep += 1
        if rep == 1:
            reps = repetitions(budget_s, time.perf_counter() - started, 2, 5)

    r0, r1, r2, r3 = (median(times[k]) for k in ("R0", "R1", "R2", "R3"))
    job = last["R3"]
    stamps = sum(report.event_count for report in job.reports)
    calls = sum(count for report in job.reports
                for count, _seconds in report.call_stats.values())
    messages = nic_messages(job.fabric)
    if messages != net.messages:
        print(f"warning: R1 posts {net.messages} NIC messages, the job "
              f"{messages}; the R1 schedule has drifted from mpisim's")

    telemetry = last["R4.telemetry"].telemetry
    table = default_xfer_table(NetworkParams())
    replayed = 0
    with spans.span("replay_overlap", "core"):
        t0 = time.perf_counter()
        for rank in telemetry.per_rank:
            replay_overlap(rank.events, table)
            replayed += len(rank.events)
        replay_s = time.perf_counter() - t0

    empty = dataclasses.replace(spec, steps=0)
    build = []
    for _ in range(5):
        with spans.span("run_app steps=0", "runtime"):
            build.append(timed(lambda: w.run(spec=empty))[0])

    out = {
        "sim.engine_us_per_event": r0 / last["R0"] * 1e6,
        "sim.engine_share": r0 / r3,
        "netsim.delta_ms": (r1 - r0) * 1e3,
        "netsim.us_per_message": (r1 - r0) / net.messages * 1e6,
        "netsim.events_per_message": net.events / net.messages,
        "netsim.share": (r1 - r0) / r3,
        "mpisim.delta_ms": (r2 - r1) * 1e3,
        "mpisim.us_per_call": (r2 - r1) / calls * 1e6,
        "mpisim.calls": calls,
        "mpisim.share": (r2 - r1) / r3,
        "core.delta_ms": (r3 - r2) * 1e3,
        "core.us_per_stamp": (r3 - r2) / stamps * 1e6,
        "core.stamps": stamps,
        "core.share": (r3 - r2) / r3,
        "core.replay_us_per_event": replay_s / replayed * 1e6,
        "runtime.build_finalize_ms": median(build) * 1e3,
        "runtime.sim_time_s": job.elapsed,
    }
    for name in OBSERVERS:
        out[f"{name}.paired_ratio"] = median(
            with_obs / without
            for with_obs, without in zip(times[f"R4.{name}"], times["R3"]))
    return out


# ---------------------------------------------------------------------------
# halo_sharded: sim.parallel, sim.remote, netsim.transport
# ---------------------------------------------------------------------------
def sharded(w: "HaloSharded", budget_s: float) -> "dict[str, float]":
    from repro.netsim.transport import TransportOptions
    from repro.sim.remote import LocalWorkerPool
    from repro.tracing import Tracer
    from repro.tracing.explain import explain_trace
    from repro.tracing.merge import build_trace

    spans = w.spans
    ratios = []
    started = time.perf_counter()
    pairs = 2
    pair = 0
    result = None
    while pair < pairs:
        runs = {}
        for side in (("single", "sharded") if pair % 2 == 0
                     else ("sharded", "single")):
            with spans.span(f"{side} job", "sim.parallel", pair=pair):
                if side == "single":
                    runs[side] = timed(lambda: w.run(shards=None))[0]
                else:
                    runs[side], result = timed(w.run)
        ratios.append(runs["single"] / runs["sharded"])
        pair += 1
        if pair == 1:
            # Pairs take about half the budget; the drivers below the rest.
            pairs = repetitions(budget_s / 2,
                                time.perf_counter() - started, 2, 5)
    assert result is not None
    stats = result.sync_stats

    with spans.span("inline backend job", "sim.parallel"):
        inline_s = timed(lambda: w.run(shard_backend="inline"))[0]

    tracer = Tracer(process="bench")
    with spans.span("traced sharded job", "sim.parallel"):
        w.run(tracer=tracer)
    explained = explain_trace(build_trace(tracer))
    buckets = explained["buckets_s"]

    socket_s = []
    # No heartbeat fires inside a job this short, so the byte counts
    # below are a pure function of the workload and repeat exactly.
    transport = TransportOptions(heartbeat_interval=30.0, host_timeout=120.0)
    with LocalWorkerPool(2) as pool:
        for _ in range(2):
            with spans.span("socket backend job", "sim.remote"):
                seconds, over_tcp = timed(lambda: w.run(
                    shard_backend="socket", shard_hosts=pool.addresses,
                    shard_transport=transport))
            socket_s.append(seconds)
    wire = over_tcp.sync_stats["transport"]
    wire_bytes = wire["bytes_out"] + wire["bytes_in"]

    return {
        "sim.parallel.wall_speedup": median(ratios),
        "sim.parallel.idle_share":
            1.0 - max(stats["busy_s"]) / stats["host_elapsed_s"],
        "sim.parallel.rounds": stats["rounds"],
        "sim.parallel.messages": stats["messages"],
        "sim.parallel.inline_job_ms": inline_s * 1e3,
        "sim.parallel.coord_wait_share":
            buckets.get("fence wait", 0.0) / explained["wall_s"],
        "sim.parallel.coord_finish_ms":
            buckets.get("finalize/merge", 0.0) * 1e3,
        "sim.remote.socket_job_ms": median(socket_s) * 1e3,
        "netsim.transport.bytes_per_round":
            wire_bytes / over_tcp.sync_stats["rounds"],
        "netsim.transport.overhead_ratio":
            1.0 - wire["payload_bytes"] / wire_bytes,
        "runtime.sim_time_s": result.elapsed,
    }


# ---------------------------------------------------------------------------
# paper_sweep: experiments and experiments.runner
# ---------------------------------------------------------------------------
def micro_tasks(count: int, iters: int) -> list:
    """``count`` short independent runner tasks (one micro cell each)."""
    from repro.service.jobs import parse_submission

    _sub, tasks = parse_submission({
        "kind": "micro", "pattern": "isend_irecv", "nbytes": 4096,
        "computes": [i * 1e-6 for i in range(count)], "iters": iters,
    })
    return tasks


def paper(w: "PaperSweep", budget_s: float) -> "dict[str, float]":
    import os

    from repro.experiments.runner import (ResultCache, run_tasks,
                                          shutdown_shared_pool)
    from repro.tools.paper import build_sections
    from workloads import run_paper_cli

    spans = w.spans
    out: "dict[str, float]" = {}

    sections = build_sections("--quick" in w.argv)
    if "--only" in w.argv:
        wanted = w.argv[w.argv.index("--only") + 1].split(",")
        sections = {key: sections[key] for key in wanted}
    section_s: "dict[str, list[float]]" = {key: [] for key in sections}
    for _ in range(2):
        for key, render in sections.items():
            with spans.span(f"section {key}", "experiments"):
                section_s[key].append(timed(render)[0])
    for key, samples in section_s.items():
        out[f"experiments.section_ms.{key}"] = median(samples) * 1e3
    out["experiments.section_ms_max"] = max(
        median(samples) for samples in section_s.values()) * 1e3

    tasks = micro_tasks(4 if w.smoke else 12, 10 if w.smoke else 50)
    direct, inline, isolated = [], [], []
    for _ in range(3):
        with spans.span("Task.run x n", "experiments.runner"):
            direct.append(timed(lambda: [t.run() for t in tasks])[0])
        with spans.span("run_tasks jobs=1", "experiments.runner"):
            inline.append(timed(lambda: run_tasks(tasks, jobs=1))[0])
        with spans.span("run_tasks isolate", "experiments.runner"):
            isolated.append(timed(lambda: run_tasks(
                tasks, jobs=1, on_error="continue", isolate=True))[0])
    per_task = 1e3 / len(tasks)
    out["experiments.runner.task_overhead_ms"] = (
        (median(inline) - median(direct)) * per_task)
    out["experiments.runner.isolate_overhead_ms"] = (
        (median(isolated) - median(inline)) * per_task)

    values = [task.run() for task in tasks]
    with spans.span("content_key x n", "experiments.runner"):
        t0 = time.perf_counter()
        keys = [task.key for task in tasks]
        out["experiments.runner.content_key_us"] = (
            (time.perf_counter() - t0) / len(tasks) * 1e6)
    cache = ResultCache(tempfile.mkdtemp(dir=w.workdir, prefix="cache-"))
    with spans.span("ResultCache.put x n", "experiments.runner"):
        t0 = time.perf_counter()
        for key, value in zip(keys, values):
            cache.put(key, value)
        out["experiments.runner.cache_put_ms"] = (
            (time.perf_counter() - t0) * per_task)
    with spans.span("ResultCache.get x n", "experiments.runner"):
        t0 = time.perf_counter()
        found = [cache.get(key)[0] for key in keys]
        out["experiments.runner.cache_get_ms"] = (
            (time.perf_counter() - t0) * per_task)
    if not all(found):
        raise RuntimeError("ResultCache lost an entry it just stored")

    cache_dir = tempfile.mkdtemp(dir=w.workdir, prefix="sweep-cache-")
    cached_argv = [a for a in w.argv if a != "--no-cache"]
    cached_argv += ["--cache-dir", cache_dir]
    out_path = os.path.join(w.workdir, "paper-layers.md")
    cold_text = run_paper_cli(cached_argv, out_path)
    warm = []
    for _ in range(3):
        with spans.span("paper.main warm cache", "experiments.runner"):
            seconds, text = timed(lambda: run_paper_cli(cached_argv, out_path))
        warm.append(seconds)
        if text != cold_text:
            raise RuntimeError("cached paper sweep differs from the cold one")
    out["experiments.runner.warm_sweep_ms"] = median(warm) * 1e3

    jobs2_argv = [("2" if prev == "--jobs" else arg)
                  for prev, arg in zip([""] + w.argv, w.argv)]
    speedups = []
    try:
        run_paper_cli(jobs2_argv, out_path)  # starts the shared pool
        for pair in range(2):
            runs = {}
            for argv in ((w.argv, jobs2_argv) if pair % 2 == 0
                         else (jobs2_argv, w.argv)):
                jobs = "2" if argv is jobs2_argv else "1"
                with spans.span(f"paper.main jobs={jobs}",
                                "experiments.runner"):
                    runs[jobs] = timed(
                        lambda: run_paper_cli(argv, out_path))[0]
            speedups.append(runs["1"] / runs["2"])
    finally:
        shutdown_shared_pool()
    out["experiments.runner.jobs2_speedup"] = median(speedups)
    return out


# ---------------------------------------------------------------------------
# service_cold / service_hot: the service layer
# ---------------------------------------------------------------------------
def metric_value(text: str, sample: str) -> float:
    """Value of one sample line (``name{labels}``) of an OpenMetrics page."""
    for line in text.splitlines():
        if line.startswith(sample + " "):
            return float(line.split()[-1])
    raise KeyError(sample)


SERVICE_COUNTERS = {
    "service.executed":
        'repro_service_submissions_total{outcome="queued"}',
    "service.cache_hits":
        'repro_service_submissions_total{outcome="cache_hit"}',
    "service.retries": "repro_service_retries_total",
}


def service(w: "ServiceWorkload", budget_s: float) -> "dict[str, float]":
    """Phases of a fixed block of cold and hot jobs, read off the spans.

    The block has a fixed number of jobs, so the server's counters over
    it repeat exactly from run to run.
    """
    spans, client = w.spans, w.client
    cold_n, hot_n, rtt_n = (4, 16, 20) if w.smoke else (48, 480, 200)
    before = client.metrics_text()
    first_span = len(spans.records)

    cold_s, indices = [], []
    for _ in range(cold_n):
        indices.append(w.fresh_spec())
        gc.collect()
        with spans.span("cold job", "service"):
            cold_s.append(w.cold_job(indices[-1]).seconds)
    for i in range(hot_n):
        gc.collect()
        with spans.span("hot job", "service"):
            w.hot_job(indices[i % cold_n])
    for _ in range(rtt_n):
        with spans.span("healthz", "service.http"):
            client.healthz()
    direct = []
    for index in indices:
        with spans.span("direct tasks", "experiments"):
            direct.append(timed(lambda: w.direct_rows(index))[0])
    after = client.metrics_text()

    by_name: "dict[str, list[float]]" = {}
    for rec in spans.records[first_span:]:
        by_name.setdefault(rec.name, []).append(rec.end - rec.start)

    def p50_ms(name: str) -> float:
        return median(by_name[name]) * 1e3

    out = {
        "service.submit_ms_p50": p50_ms("submit"),
        "service.queue_ms_p50": p50_ms("queue"),
        "service.execute_ms_p50": p50_ms("execute"),
        "service.notify_ms_p50": p50_ms("notify"),
        "service.fetch_ms_p50": p50_ms("result"),
        "service.direct_ms_p50": median(direct) * 1e3,
        "service.overhead_ratio": median(cold_s) / median(direct),
        "service.http_rtt_ms_p50": p50_ms("healthz"),
        "service.hot_submit_ms_p50": p50_ms("hot submit"),
        "service.hot_fetch_ms_p50": p50_ms("hot result"),
    }
    for name, sample in SERVICE_COUNTERS.items():
        out[name] = metric_value(after, sample) - metric_value(before, sample)
    return out
