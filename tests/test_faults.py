"""Fault injection + resilience layer: deterministic unit/integration tests.

Covers the :mod:`repro.faults` stack end to end: plan parsing, seeded
injector determinism, the reliable send channel under packet faults, the
engine watchdog (deadlock / stall / sim-time cap), degraded-stream
collection (stamp loss + ring-mode overflow driving Case 3), and the
``faults=None`` bit-identity gate against the NIC oracle.
"""

import pytest

from repro.core.measures import CASE_ONE_EVENT
from repro.core.monitor import Monitor
from repro.core.xfer_table import XferTable
from repro.faults import (
    FaultInjector,
    FaultPlan,
    ResilienceParams,
    WatchdogConfig,
    check_run_invariants,
    parse_fault_spec,
)
from repro.mpisim.config import MpiConfig, mvapich2_like, openmpi_like
from repro.netsim.params import NetworkParams
from repro.runtime.launcher import run_app
from repro.sim import Engine
from repro.sim.events import Timeout
from tests.oracles import run_both

LOSSY = ResilienceParams()


def _exchange(ctx, nbytes=10_000, iters=12, compute=20e-6):
    comm = ctx.comm
    for it in range(iters):
        if comm.rank == 0:
            req = yield from comm.isend(1, it, nbytes, bufkey="b")
            yield from ctx.compute(compute)
            yield from comm.wait(req)
        else:
            yield from comm.recv(0, it)
    return None


# ---------------------------------------------------------------------------
# Plan + injector
# ---------------------------------------------------------------------------
def test_parse_fault_spec_fields():
    plan = parse_fault_spec(
        "drop=0.1,dup=0.05,reorder=0.02,reorder_delay=1e-4,"
        "events=0.3,ring=256,degrade=1:0.0:0.5:2.0,stall=0:0.1:0.2,"
        "straggler=1:1.5",
        seed=9,
    )
    assert plan.seed == 9
    assert plan.drop_prob == 0.1 and plan.dup_prob == 0.05
    assert plan.reorder_prob == 0.02 and plan.reorder_delay == 1e-4
    assert plan.event_drop_prob == 0.3 and plan.ring_capacity == 256
    assert plan.degradations[0].node == 1
    assert plan.stalls[0].node == 0
    assert plan.stragglers == ((1, 1.5),)
    assert plan.has_packet_faults and plan.has_timing_faults
    assert plan.degrades_instrumentation


def test_parse_fault_spec_rejects_garbage():
    with pytest.raises(ValueError):
        parse_fault_spec("bogus=1", seed=0)
    with pytest.raises(ValueError):
        FaultPlan(drop_prob=1.5)


@pytest.mark.parametrize("seed", [-1, 1.5, "7"])
def test_a_bad_seed_is_rejected_when_the_plan_is_built(seed):
    """Not at the first packet roll, mid-simulation."""
    with pytest.raises(ValueError, match="seed"):
        parse_fault_spec("drop=0.1", seed=seed)


def test_injector_verdicts_deterministic_per_link():
    a = FaultInjector(FaultPlan(seed=4, drop_prob=0.2, dup_prob=0.1), 3)
    b = FaultInjector(FaultPlan(seed=4, drop_prob=0.2, dup_prob=0.1), 3)
    seq_a = [(a.roll(0, 1).drop, a.roll(0, 1).duplicate) for _ in range(40)]
    seq_b = [(b.roll(0, 1).drop, b.roll(0, 1).duplicate) for _ in range(40)]
    assert seq_a == seq_b  # same seed, same link -> same stream
    c = FaultInjector(FaultPlan(seed=4, drop_prob=0.2, dup_prob=0.1), 3)
    seq_c = [(c.roll(1, 0).drop, c.roll(1, 0).duplicate) for _ in range(40)]
    assert seq_a != seq_c  # directed links draw independent streams


def test_stamp_loss_streams_are_per_rank_and_seeded():
    inj = FaultInjector(FaultPlan(seed=2, event_drop_prob=0.5), 2)
    s0 = inj.stamp_loss(0)
    s0b = FaultInjector(FaultPlan(seed=2, event_drop_prob=0.5), 2).stamp_loss(0)
    seq = [s0.drop_begin() for _ in range(30)]
    assert seq == [s0b.drop_begin() for _ in range(30)]
    assert s0.begin_dropped == sum(seq) and s0.dropped == s0.begin_dropped
    # prob 0 -> no stream at all (nil fast path)
    assert FaultInjector(FaultPlan(seed=2), 2).stamp_loss(0) is None


# ---------------------------------------------------------------------------
# Bit-identity gates
# ---------------------------------------------------------------------------
def test_faults_none_bit_identical_against_the_nic_oracle():
    """The acceptance gate: ``faults=None`` perturbs neither the shipped NIC
    path nor the oracle's (``tests.oracles.run_both``)."""
    params = NetworkParams(faults=None)
    run_both(_exchange, 2, config=openmpi_like(), params=params, seed=3)


def test_all_zero_fault_plan_is_bit_identical_to_no_plan():
    """An armed injector with nothing to inject changes no observable.

    This pins the no-fault expressions in the NIC fault branches to the
    exact float-op order of the fault-free code.
    """
    base = run_app(_exchange, 2, config=openmpi_like(), seed=3)
    nulled = run_app(
        _exchange, 2, config=openmpi_like(), seed=3,
        params=NetworkParams(faults=FaultPlan(seed=0)),
    )
    for rep_a, rep_b in zip(base.reports, nulled.reports):
        assert rep_a.to_dict() == rep_b.to_dict()
    assert base.rank_finish_times == nulled.rank_finish_times


# ---------------------------------------------------------------------------
# Protocol resilience
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("config", [
    openmpi_like(resilience=LOSSY),
    openmpi_like(leave_pinned=True, resilience=LOSSY),
    mvapich2_like(resilience=LOSSY),
    MpiConfig(name="rput", eager_limit=8192, rndv_mode="rput",
              resilience=LOSSY),
], ids=lambda c: c.name)
@pytest.mark.parametrize("nbytes", [10_000, 512 * 1024])
def test_lossy_fabric_completes_with_resilience(config, nbytes):
    plan = FaultPlan(seed=7, drop_prob=0.15, dup_prob=0.05, reorder_prob=0.05)
    result = run_app(
        _exchange, 2, config=config, params=NetworkParams(faults=plan),
        app_args=(nbytes,),
    )
    assert result.watchdog is None
    assert check_run_invariants(result) == []
    # retransmissions and duplicates are invisible to the application:
    # the receiver observes exactly what a clean fabric would deliver
    clean = run_app(_exchange, 2, config=config, app_args=(nbytes,))
    assert result.reports[1].total.transfer_count == \
        clean.reports[1].total.transfer_count


def test_resilience_counters_via_metrics():
    from repro.metrics import MetricsRegistry

    registry = MetricsRegistry()
    plan = FaultPlan(seed=5, drop_prob=0.3, dup_prob=0.2)
    result = run_app(
        _exchange, 2, config=openmpi_like(resilience=LOSSY),
        params=NetworkParams(faults=plan), metrics=registry,
    )
    assert result.fabric.injector.packets_dropped > 0
    snap = registry.snapshot()["metrics"]

    def total(name):
        return sum(s["value"] for s in snap[name]["samples"])

    assert total("repro_mpi_packets_retransmitted") > 0
    assert total("repro_mpi_acks_sent") > 0
    assert total("repro_faults_packets_dropped") == \
        result.fabric.injector.packets_dropped


def test_duplicate_envelopes_are_suppressed():
    from repro.metrics import MetricsRegistry

    registry = MetricsRegistry()
    plan = FaultPlan(seed=11, dup_prob=0.5)
    result = run_app(
        _exchange, 2, config=openmpi_like(resilience=LOSSY),
        params=NetworkParams(faults=plan), metrics=registry,
    )
    snap = registry.snapshot()["metrics"]
    suppressed = sum(
        s["value"] for s in snap["repro_mpi_duplicates_suppressed"]["samples"]
    )
    assert suppressed > 0
    # duplicates never surface as extra message deliveries
    clean = run_app(_exchange, 2, config=openmpi_like(resilience=LOSSY))
    assert result.reports[1].total.transfer_count == \
        clean.reports[1].total.transfer_count
    assert check_run_invariants(result) == []


# ---------------------------------------------------------------------------
# Engine watchdog
# ---------------------------------------------------------------------------
def test_run_guarded_returns_none_when_drained():
    eng = Engine()
    Timeout(eng, 1e-3)
    assert eng.run_guarded(stall_sim_time=1.0) is None


def test_run_guarded_flags_dead_clock():
    eng = Engine()

    def rearm(_ev):
        t = Timeout(eng, 1e-4)
        t.callbacks.append(rearm)

    rearm(None)
    # processed_count moves, the custom token does not -> stalled
    assert eng.run_guarded(stall_sim_time=5e-3, progress=lambda: 0) == "stalled"


def test_run_guarded_max_sim_time():
    eng = Engine()

    def rearm(_ev):
        t = Timeout(eng, 1e-4)
        t.callbacks.append(rearm)

    rearm(None)
    assert eng.run_guarded(max_sim_time=2e-3) == "max_sim_time"
    assert eng.now >= 2e-3


def test_run_guarded_needs_a_guard():
    with pytest.raises(Exception):
        Engine().run_guarded()


def test_watchdog_reports_deadlock_with_partial_report():
    def wedged(ctx):
        if ctx.comm.rank == 0:
            # the message that never comes
            yield from ctx.comm.recv(1, 0)
        return None

    result = run_app(
        wedged, 2, config=openmpi_like(),
        watchdog=WatchdogConfig(stall_sim_time=0.01),
    )
    assert result.watchdog is not None
    assert result.watchdog.reason == "deadlock"
    snap = {r.rank: r for r in result.watchdog.ranks}
    assert snap[0].alive and not snap[1].alive
    assert "deadlock" in result.watchdog.render_text()
    # partial reports still harvested, algebra intact
    assert result.reports[0] is not None
    assert check_run_invariants(result) == []


def test_watchdog_without_config_still_raises_on_deadlock():
    def wedged(ctx):
        if ctx.comm.rank == 0:
            yield from ctx.comm.recv(1, 0)
        return None

    with pytest.raises(RuntimeError, match="deadlock"):
        run_app(wedged, 2, config=openmpi_like())


def test_watchdog_stops_retransmission_storm():
    plan = FaultPlan(seed=3, drop_prob=1.0)  # nothing ever arrives
    result = run_app(
        _exchange, 2, config=openmpi_like(resilience=LOSSY),
        params=NetworkParams(faults=plan),
        watchdog=WatchdogConfig(stall_sim_time=0.01, max_sim_time=10.0),
    )
    assert result.watchdog is not None
    assert result.watchdog.reason in ("stalled", "max_sim_time")
    assert result.fabric.injector.packets_dropped > 0
    assert check_run_invariants(result) == []


# ---------------------------------------------------------------------------
# Degraded-stream collection (satellite: ring overflow -> Case 3)
# ---------------------------------------------------------------------------
def _table():
    return XferTable.from_model(1e-6, 1e9, [2.0 ** k for k in range(24)])


def test_ring_mode_overflow_reconciles_as_case3():
    clock_now = [0.0]
    full = Monitor(lambda: clock_now[0], _table())
    ring = Monitor(lambda: clock_now[0], _table(), queue_capacity=16,
                   ring_mode=True)

    def stamp(mon):
        clock_now[0] = 0.0
        for i in range(30):
            clock_now[0] += 1e-5
            mon.call_enter("MPI_Isend")
            xid = mon.xfer_begin(4096.0)
            clock_now[0] += 1e-6
            mon.call_exit("MPI_Isend")
            clock_now[0] += 5e-5  # computation between begin and end
            mon.call_enter("MPI_Wait")
            mon.xfer_end(xid, 4096.0)
            clock_now[0] += 1e-6
            mon.call_exit("MPI_Wait")

    stamp(full)
    stamp(ring)
    full_rep = full.finalize(rank=0)
    ring_rep = ring.finalize(rank=0)
    assert full.queue.dropped == 0
    assert ring.queue.dropped > 0  # the ring really overflowed
    # the drained queue saw everything: all split-call (Case 2)
    assert full_rep.total.transfer_count == 30
    assert full_rep.total.case_counts[CASE_ONE_EVENT] == 0
    # ring mode: survivors reconcile; orphaned ENDs resolve under Case 3
    assert ring_rep.total.case_counts[CASE_ONE_EVENT] > 0
    assert ring_rep.total.transfer_count <= 30
    t = ring_rep.total
    assert 0.0 <= t.min_overlap_time <= t.max_overlap_time
    assert t.max_overlap_time <= t.data_transfer_time + 1e-12


def test_ring_suffix_sanitizer_drops_orphan_closers():
    clock_now = [0.0]
    mon = Monitor(lambda: clock_now[0], _table(), queue_capacity=4,
                  ring_mode=True)
    mon.section_begin("solve")
    clock_now[0] = 1e-5
    mon.call_enter("MPI_Send")
    clock_now[0] = 2e-5
    mon.call_exit("MPI_Send")
    clock_now[0] = 3e-5
    mon.xfer_end_only(1024.0)
    clock_now[0] = 4e-5
    mon.section_end("solve")
    # capacity 4, 5 events pushed: SECTION_BEGIN was overwritten, leaving
    # an orphaned SECTION_END in the suffix -- finalize must not raise.
    rep = mon.finalize(rank=0)
    assert mon.queue.dropped == 1
    assert rep.total.transfer_count == 1
    assert rep.total.case_counts[CASE_ONE_EVENT] == 1


def test_stamp_loss_degrades_toward_case3_and_invariants_hold():
    plan = FaultPlan(seed=11, event_drop_prob=0.4)
    degraded = run_app(
        _exchange, 2, config=openmpi_like(),
        params=NetworkParams(faults=plan), app_args=(10_000, 40),
    )
    baseline = run_app(_exchange, 2, config=openmpi_like(),
                       app_args=(10_000, 40))
    assert check_run_invariants(degraded) == []
    b = baseline.reports[0].total
    d = degraded.reports[0].total
    assert d.case_counts[CASE_ONE_EVENT] > b.case_counts[CASE_ONE_EVENT]
    # a transfer that lost both stamps vanishes; one stamp -> still counted
    assert d.transfer_count <= b.transfer_count


def test_degraded_timing_faults_keep_invariants():
    plan = parse_fault_spec(
        "degrade=1:0.0:1.0:3.0,stall=0:0.0005:0.001,straggler=1:2.0", seed=1
    )
    assert not plan.has_packet_faults
    result = run_app(
        _exchange, 2, config=openmpi_like(),
        params=NetworkParams(faults=plan),
    )
    assert result.watchdog is None
    assert check_run_invariants(result) == []
    slowed = result.elapsed
    clean = run_app(_exchange, 2, config=openmpi_like()).elapsed
    assert slowed > clean  # the degradation actually cost time


# ---------------------------------------------------------------------------
# ARMCI jobs run on the same launcher: watchdog and degraded monitors reach mg
# ---------------------------------------------------------------------------
def _mg_cell(faults):
    """``nas --benchmark mg --klass S --np 4 --niter 1 [--faults SPEC]``."""
    from repro.core.report import OverlapReport
    from repro.tools.nas import _run_cell

    payload = _run_cell("mg", "S", 4, 1, "paper", False, False, faults=faults)
    return payload, [OverlapReport.from_dict(d) for d in payload["reports"]]


def test_mg_under_packet_faults_ends_in_a_diagnosis_not_a_traceback():
    """At the parent: ``RuntimeError: deadlock: 4 ARMCI rank(s) never
    finished`` -- the second launcher never got the watchdog.  ARMCI has no
    reliable transport, so a dropped barrier packet wedges the job."""
    payload, _ = _mg_cell("drop=0.2")
    assert payload["faults"]["packets_dropped"] > 0
    assert "watchdog: run stopped (deadlock)" in payload["watchdog"]

    from repro.experiments.nas_char import nas_cell
    from repro.faults import arm_faults

    app, config, app_args = nas_cell("mg", "S", 1)
    params, config, watchdog = arm_faults("drop=0.2", 0, config)
    result = run_app(app, 4, config=config, params=params,
                     app_args=app_args, watchdog=watchdog)
    assert result.watchdog.reason in ("deadlock", "stalled")
    assert [snap.rank for snap in result.watchdog.ranks] == [0, 1, 2, 3]
    assert any(snap.alive for snap in result.watchdog.ranks)
    assert all(report is not None for report in result.reports)
    assert check_run_invariants(result) == []


def test_instrumentation_faults_reach_armci_monitors():
    """At the parent the faulted report was byte-for-byte the healthy one:
    ARMCI monitors were built without ``stamp_loss`` / ring capacity."""
    healthy_payload, healthy = _mg_cell(None)
    payload, degraded = _mg_cell("events=0.5,ring=64")
    assert "watchdog" not in payload and "faults" not in healthy_payload
    assert degraded[0].event_count < healthy[0].event_count
    assert degraded[0].total.case_counts[CASE_ONE_EVENT] > 0

    from repro.experiments.nas_char import nas_cell
    from repro.faults import arm_faults

    app, config, app_args = nas_cell("mg", "S", 1)
    params, config, watchdog = arm_faults("events=0.5,ring=64", 0, config)
    result = run_app(app, 4, config=config, params=params, label="mg.S.4",
                     app_args=app_args, watchdog=watchdog)
    assert result.watchdog is None
    assert check_run_invariants(result) == []
    assert [r.to_dict() for r in result.reports] == payload["reports"]
