"""Same-instant clock syncs share one store entry (``engine._SyncGroup``).

The grouped store must be observationally the store it replaced, where
every sync is its own heap tuple (``tests.oracles.one_entry_per_sync``),
and so is every posted completion (``tests.oracles.heap_only``: no lane):
the same ``(when, seq)`` dispatch sequence, ``processed_count``, final
``_seq``, ``heap_high_water`` and report, on random skewed-ring programs
and on every single-process report-pin case -- where, grouped, no store
entry is ever a stale sync.  The edge tests below each fail on a naive
group -- one that counts itself once, runs its members past a competing
entry or a deadline, or loses its count when the store is compacted while
it is being woken.
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
from repro.sim.parallel import ShardWorker
from repro.sim.process import ClockSync
from tests.oracles import heap_only, one_entry_per_sync, recording_dispatch
from tests.test_call_budget import _skewed_ring_app
from tests.test_report_pins import CASES, digest

_T = 1.0
_T2 = 2.0


@contextlib.contextmanager
def _store(grouped: bool):
    """The shipped store, or one heap tuple per pending entry."""
    if grouped:
        yield
    else:
        with one_entry_per_sync(), heap_only():
            yield


def _assert_no_stale_sync(engine: Engine) -> None:
    """Every armed clock sync in the store, lone or a group member, carries
    the key it is stored under: no entry is ever a stale sync."""
    for _when, seq, item in engine._heap:
        if item.__class__ is ClockSync:
            assert item.seq == seq
        elif item.__class__ is _SyncGroup:
            assert item[0][0] == seq
            assert all(entry.seq == key for key, entry in item)


@contextlib.contextmanager
def _checking_syncs():
    advance_to = Engine.advance_to

    def checked(self, when):
        _assert_no_stale_sync(self)
        return advance_to(self, when)

    with pytest.MonkeyPatch.context() as patches:
        patches.setattr(Engine, "advance_to", checked)
        yield


def _observe_job(run, grouped: bool) -> dict:
    with _store(grouped), recording_dispatch() as log, \
            (_checking_syncs() if grouped else contextlib.nullcontext()):
        result = run()
    engine = result.fabric.engine
    # What is left of the store holds every dead entry counted (none, if
    # it drained).
    assert engine._dead_pending == sum(map(engine._is_dead, engine._heap))
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


def test_compaction_during_a_group_wake_keeps_one_entry_counts():
    """Guards cancelled early compact the store with a group queued; a
    grouped member's wake cancels enough more to compact it while its group
    is out of the store, being woken.  ``pending_count`` after every
    compaction is the one-entry store's, and ``_dead_pending`` never goes
    negative.  The watchdog loop stops once only dead guards are left, and
    ``live_peek`` drops them."""
    during_wake = []  # per compaction: were members counted off the store?

    def scenario(eng):
        dead = []
        compactions = []
        compact = eng._compact

        def watched_compact():
            queued = sum(len(group) - 1 for group in _groups_in(eng))
            during_wake.append(eng._off_heap > queued)
            compact()
            compactions.append(eng.pending_count)

        eng._compact = watched_compact
        guards = []

        def cancel(some):
            for guard in some:
                assert guard.cancel()
                dead.append(eng._dead_pending)

        def rank(eng, i):
            yield from _sync(eng, _T)
            if i == 1:  # the first grouped member (rank 0's sync is lone)
                cancel(guards[400:])
            yield from _sync(eng, _T2)
            dead.append(eng._dead_pending)

        _lockstep(eng, 150, rank)
        guards.extend(eng.timeout(3 * _T2) for _ in range(600))
        eng.timeout(_T / 2).callbacks.append(lambda _e: cancel(guards[:400]))
        guarded = eng.run_guarded(max_sim_time=10.0, check_interval=0.25)
        left = (eng.now, eng.pending_count, eng._dead_pending)
        return min(dead), compactions, guarded, left, eng.live_peek()

    grouped, reference = _both(scenario)
    assert grouped == reference
    low, compactions, guarded, (now, pending, dead), peek = grouped[0]
    assert low >= 0 and during_wake[:len(compactions)] == [False, True]
    assert guarded is None and now < 3 * _T2 and pending == dead > 0
    assert peek == math.inf and grouped[6:8] == (0, 0)  # pending, dead


def test_run_guarded_counts_every_pending_member():
    """Between watchdog chunks the live count is one per sync, grouped or
    not, beside cancelled guards: a group counting itself once would read
    two live entries where three ranks wait."""
    shapes = []

    def scenario(eng):
        log, live = [], []

        def rank(eng, i):
            yield from _sync(eng, _T)
            yield from _sync(eng, _T2)
            log.append((i, eng.now))

        def progress():
            live.append(eng.pending_count - eng._dead_pending)
            shapes.append([len(group) for group in _groups_in(eng)])
            return eng.processed_count

        _lockstep(eng, 3, rank)
        guards = [eng.timeout(10 * _T2) for _ in range(2)]
        eng.timeout(_T / 8).callbacks.append(
            lambda _e: [guard.cancel() for guard in guards])
        guarded = eng.run_guarded(max_sim_time=5.0, check_interval=_T / 4,
                                  progress=progress)
        return live, guarded, log

    grouped, reference = _both(scenario)
    assert grouped == reference
    live, guarded, log = grouped[0]
    assert guarded is None and log == [(0, _T2), (1, _T2), (2, _T2)]
    assert live == [6] + [3] * 7  # start; then every chunk up to _T2
    assert shapes[1:8] == [[2]] * 7  # rank 0's sync is lone


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


def test_a_group_yields_to_a_lane_completion_between_its_members():
    """A completion posted at the group's instant between two members'
    syncs waits in the engine's lane, not the heap: the group must still
    wake the members keyed before it, then let it run, then the rest."""
    def scenario(eng):
        log = []

        def rank(eng, i):
            if i == 2:
                eng.post_at(_T).callbacks.append(
                    lambda _e: log.append(("nic", eng.now)))
            yield from _sync(eng, _T)
            log.append((i, eng.now))

        _lockstep(eng, 4, rank)
        eng.run()
        return log

    grouped, reference = _both(scenario)
    assert grouped == reference
    assert grouped[0] == [(0, _T), (1, _T), ("nic", _T), (2, _T), (3, _T)]
