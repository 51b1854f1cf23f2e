"""Same-instant clock syncs share one store entry (``engine._SyncGroup``).

The grouped store must be observationally the store it replaced, where
every sync is its own heap tuple (``tests.oracles.one_entry_per_sync``):
the same ``(when, seq)`` dispatch sequence, ``processed_count``, final
``_seq``, ``heap_high_water`` and report, on random skewed-ring programs
and on every single-process report-pin case.  The edge tests below each
fail on a naive group -- one that wakes abandoned members, counts itself
once, or runs its members past a competing entry.
"""

from __future__ import annotations

import collections
import contextlib
import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.experiments.halo import halo_app
from repro.mpisim.config import MpiConfig, mvapich2_like
from repro.runtime.launcher import run_app
from repro.sim import Engine
from repro.sim.engine import _SyncGroup
from repro.sim.events import Interrupt
from repro.sim.parallel import ShardWorker
from tests.oracles import one_entry_per_sync, recording_dispatch
from tests.test_call_budget import _skewed_ring_app
from tests.test_report_pins import CASES, digest

_T = 1.0
_T2 = 2.0


def _store(grouped: bool):
    return contextlib.nullcontext() if grouped else one_entry_per_sync()


def _observe_job(run, grouped: bool) -> dict:
    with _store(grouped), recording_dispatch() as log:
        result = run()
    engine = result.fabric.engine
    return {"dispatch": log, "events": engine.processed_count,
            "seq": engine._seq, "high_water": engine.heap_high_water,
            "digest": digest(result)}


def _groups_in(engine: Engine) -> "list[_SyncGroup]":
    return [entry[2] for entry in engine._heap
            if entry[2].__class__ is _SyncGroup]


# -- the differentials ---------------------------------------------------------

@given(
    st.integers(min_value=2, max_value=8),
    st.sampled_from(["pipelined", "rget", "rput"]),
    st.sampled_from(["send", "rdma_write"]),
    st.lists(st.tuples(st.integers(min_value=0, max_value=40_000),
                       st.floats(min_value=0.0, max_value=50e-6)),
             min_size=1, max_size=5),
)
@settings(max_examples=30, deadline=None)
def test_grouped_store_dispatches_like_one_entry_per_sync(
        nprocs, rndv_mode, eager_mode, steps):
    config = MpiConfig(name="t-groups", eager_limit=8192, frag_size=16384,
                       rndv_mode=rndv_mode, eager_mode=eager_mode)
    sizes = [nbytes for nbytes, _compute in steps]
    computes = [compute for _nbytes, compute in steps]

    def run():
        return run_app(_skewed_ring_app, nprocs, config,
                       app_args=(sizes, computes))

    assert _observe_job(run, True) == _observe_job(run, False)


def test_the_skewed_ring_does_group_syncs(monkeypatch):
    """The generator above exercises groups, not only lone syncs."""
    joined = []

    def append(group, member):
        joined.append(member)
        collections.deque.append(group, member)

    monkeypatch.setattr(_SyncGroup, "append", append)
    run_app(_skewed_ring_app, 6, MpiConfig(name="t-groups", eager_limit=8192),
            app_args=([4096, 30_000, 0], [0.0, 5e-6, 20e-6]))
    assert len(joined) > 10


@pytest.mark.parametrize("name", sorted(
    name for name in CASES if not name.startswith("sharded-")))
def test_every_pin_case_dispatches_like_one_entry_per_sync(name):
    assert _observe_job(CASES[name], True) == _observe_job(CASES[name], False)


def test_a_shard_window_ending_inside_a_group():
    """Sharded windows (``run(until=...)`` just below each fence) end with
    a group pending and later ones keep filling it; channel messages
    injected at its instant carry keys below its members'."""
    ends_inside = []
    advance = ShardWorker.advance

    def watched(self, fence, msgs):
        reply = advance(self, fence, msgs)
        ends_inside.extend(len(group) for group in _groups_in(self.engine)
                           if len(group) > 1)
        return reply

    def observe(grouped):
        with _store(grouped), recording_dispatch() as log, \
                pytest.MonkeyPatch.context() as patches:
            patches.setattr(ShardWorker, "advance", watched)
            result = run_app(halo_app, 8, mvapich2_like(),
                             app_args=(4, 2048.0, 15e-6),
                             shards=2, shard_backend="inline")
        counts = [(s["events"], s["heap_high_water"], s["msgs_across"])
                  for s in result.shard_stats]  # not busy_s: host time
        return log, counts, digest(result)

    grouped = observe(True)
    assert ends_inside
    ends_inside.clear()
    assert grouped == observe(False)
    assert not ends_inside


# -- edge cases: bare engines ---------------------------------------------------

def _lockstep(eng: Engine, n: int, body) -> list:
    """``n`` processes started together, each running ``body(eng, i)``:
    their first syncs land on one instant back to back."""
    return [eng.process(body(eng, i)) for i in range(n)]


def _sync(eng: Engine, when: float):
    t = eng.advance_to(when)
    if t is not None:
        yield t


def _both(scenario) -> "tuple[object, object]":
    """Run ``scenario(engine) -> observation`` grouped and one-entry."""
    outcomes = []
    for grouped in (True, False):
        with _store(grouped), recording_dispatch() as log:
            eng = Engine()
            seen = scenario(eng)
        outcomes.append((seen, log, eng.now, eng.processed_count, eng._seq,
                         eng.heap_high_water, eng.pending_count,
                         eng._dead_pending, eng.cancelled_count))
    return outcomes[0], outcomes[1]


def test_interrupting_a_grouped_member_under_the_watchdog_loop():
    """An interrupted member is abandoned in place; re-armed at the same
    instant it joins the same group again under its new key.  A naive
    group would wake it at its stale position."""

    def scenario(eng):
        log = []

        def rank(eng, i):
            try:
                yield from _sync(eng, _T)
            except Interrupt:
                log.append(("interrupted", i, eng.now))
                yield from _sync(eng, _T)
            log.append(("woke", i, eng.now))

        procs = _lockstep(eng, 6, rank)
        eng.timeout(_T / 2).callbacks.append(lambda _e: procs[2].interrupt())
        eng.run(until=_T / 4)
        log.append(("groups", [len(g) for g in _groups_in(eng)]))
        log.append(("guarded", eng.run_guarded(max_sim_time=10.0,
                                               stall_sim_time=5.0)))
        return log

    grouped, reference = _both(scenario)
    assert ("groups", [5]) in grouped[0] and ("groups", []) in reference[0]
    assert grouped[1:] == reference[1:]
    assert [x for x in grouped[0] if x[0] != "groups"] == \
        [x for x in reference[0] if x[0] != "groups"]
    woke = [x for x in grouped[0] if x[0] == "woke"]
    assert [i for _w, i, _t in woke] == [0, 1, 3, 4, 5, 2]


def test_compaction_drops_abandoned_members_of_queued_and_running_groups():
    """Abandoned members leave the store at compaction -- those of a queued
    group, and those of the group being woken -- so ``pending_count`` and
    every later high-water mark are the one-entry store's, and
    ``_dead_pending`` never goes negative."""
    woken_group = []  # per compaction: was a group being woken?

    def scenario(eng):
        dead = []
        compactions = []
        compact = eng._compact

        def watched_compact():
            woken_group.append(eng._retiring is not None)
            compact()
            compactions.append(eng.pending_count)

        eng._compact = watched_compact
        procs = []

        def rank(eng, i):
            try:
                yield from _sync(eng, _T)
                if i == 1:  # the first grouped member: abandon the others
                    for victim in procs[2:100] + procs[120:]:
                        victim.interrupt()
                        dead.append(eng._dead_pending)
            except Interrupt:
                yield from _sync(eng, _T2)
            dead.append(eng._dead_pending)

        procs.extend(_lockstep(eng, 150, rank))
        guards = [eng.timeout(3 * _T2) for _ in range(200)]

        def early(_e):  # some members of the queued group, then the guards
            for victim in procs[100:120]:
                victim.interrupt()
            for guard in guards:
                guard.cancel()
                dead.append(eng._dead_pending)

        eng.timeout(_T / 2).callbacks.append(early)
        eng.run()
        return min(dead), compactions

    grouped, reference = _both(scenario)
    assert grouped == reference
    low, compactions = grouped[0]
    assert low >= 0
    assert woken_group[:len(compactions)] == [False, True]


def test_live_peek_skips_a_group_of_abandoned_members():
    def scenario(eng):
        peeks = []

        def rank(eng, i):
            with contextlib.suppress(Interrupt):
                yield from _sync(eng, _T)

        procs = _lockstep(eng, 5, rank)
        live = eng.timeout(_T2)
        eng.run(until=_T / 4)
        peeks.append((eng.live_peek(), eng.pending_count))
        for proc in procs[:3]:  # the lone head and the group's oldest two
            proc.interrupt()
        eng.run(until=_T / 2)
        peeks.append((eng.live_peek(), eng.pending_count, eng._dead_pending))
        for proc in procs[3:]:
            proc.interrupt()
        eng.run(until=3 * _T / 4)
        peeks.append((eng.live_peek(), eng.pending_count, eng._dead_pending))
        eng.run()
        return peeks, live.processed

    grouped, reference = _both(scenario)
    assert grouped == reference
    peeks, fired = grouped[0]
    assert [p[0] for p in peeks] == [_T, _T, _T2] and fired


def test_a_sync_lands_on_an_instant_whose_group_live_peek_dropped():
    """``live_peek`` empties an all-abandoned group off the head; a sync
    made afterwards at its instant (a process woken by something injected
    before it, as a shard's channel messages are) starts a new group
    instead of joining the dropped one."""

    def scenario(eng):
        log = []
        go = eng.event()

        def rank(eng, i):
            if i == 3:
                yield go
            with contextlib.suppress(Interrupt):
                yield from _sync(eng, _T)
                log.append((i, eng.now))

        procs = _lockstep(eng, 4, rank)
        eng.run(until=_T / 8)
        for proc in procs[:3]:
            proc.interrupt()
        eng.post_at(_T)  # keyed after the group: stops the peek there
        eng.run(until=_T / 4)
        log.append(("peek", eng.live_peek(), eng.pending_count))
        go.succeed()
        eng.run()
        return log

    grouped, reference = _both(scenario)
    assert grouped == reference
    assert grouped[0] == [("peek", _T, 1), (3, _T)]


@pytest.mark.parametrize("deadline", [
    math.nextafter(_T, -math.inf), _T, math.nextafter(_T, math.inf)])
def test_a_deadline_at_the_group_instant(deadline):
    def scenario(eng):
        log = []

        def rank(eng, i):
            yield from _sync(eng, _T)
            log.append((i, eng.now))

        _lockstep(eng, 4, rank)
        eng.run(until=deadline)
        return log, eng.dispatch_tail

    grouped, reference = _both(scenario)
    assert grouped == reference


def test_a_stop_event_that_fires_between_two_members():
    """Member, stop event, member -- keys in that order at one instant:
    ``run(until=stop)`` wakes the first member only."""

    def scenario(eng):
        log = []
        stop = []

        def rank(eng, i):
            if i == 2:  # between the second and third syncs
                stop.append(eng.timeout(_T))
                return
            yield from _sync(eng, _T)
            log.append((i, eng.now))

        _lockstep(eng, 4, rank)
        eng.run(until=_T / 2)
        shapes.append([len(g) for g in _groups_in(eng)])
        eng.run(until=stop[0])
        log.append(("stopped", eng.pending_count))
        eng.run()
        return log

    shapes = []
    grouped, reference = _both(scenario)
    assert grouped == reference
    log = grouped[0]
    assert shapes == [[2], []]
    assert log[:2] == [(0, _T), (1, _T)] and log[2][0] == "stopped"
    assert log[3:] == [(3, _T)]


def test_run_guarded_counts_every_pending_member():
    """Two of three syncs at one instant abandoned: one live member is
    still pending, so the store is not drained (a group counting once
    would read 2 entries - 2 dead = drained and never wake it)."""

    def scenario(eng):
        log = []

        def rank(eng, i):
            try:
                yield from _sync(eng, _T)
                log.append(("woke", i, eng.now))
            except Interrupt:
                log.append(("interrupted", i, eng.now))

        procs = _lockstep(eng, 3, rank)

        def abandon(_e):
            procs[0].interrupt()
            procs[1].interrupt()

        eng.timeout(0.1).callbacks.append(abandon)
        log.append(("guarded", eng.run_guarded(max_sim_time=5.0,
                                               check_interval=0.25)))
        return log

    grouped, reference = _both(scenario)
    assert grouped == reference
    assert ("woke", 2, _T) in grouped[0]


def test_run_guarded_sees_a_group_of_stale_syncs_as_drained():
    def scenario(eng):
        def rank(eng, i):
            with contextlib.suppress(Interrupt):
                yield from _sync(eng, 100.0)

        procs = _lockstep(eng, 4, rank)

        def abandon(_e):
            for proc in procs:
                proc.interrupt()

        eng.timeout(1e-6).callbacks.append(abandon)
        return eng.run_guarded(max_sim_time=1.0, stall_sim_time=0.5)

    grouped, reference = _both(scenario)
    assert grouped == reference
    assert grouped[0] is None and grouped[2] < 1.0
