"""Call budget and sync discipline of the per-rank CPU clocks.

A rank charges CPU it alone can observe to its own clock and touches the
event queue only when it touches the network (``docs/performance.md``,
"Rank clocks and lazy synchronisation").  Two things keep that honest:

* a **budget** in the style of the import and memory budgets -- counts,
  never seconds -- on one fixed small job: engine events, Python-level
  calls, stamps, pending-store population.  An extra event or frame per
  MPI call shows up here before it shows up as milliseconds in ``bench/``;
* the **discipline**: on every single-process run of the report-pin
  matrix, MPI and ARMCI alike, a rank's clock never reads behind the
  engine's when it stamps, and reads exactly the engine's time whenever
  the rank looks at a NIC queue or posts to a NIC -- the rule whose
  violation silently changes what a poll sees.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import heapq
import sys
import types

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.sim.engine as engine_module
from repro.armci import run_armci_app
from repro.armci.api import ArmciEndpoint
from repro.armci.strided import StridedSpec
from repro.core.monitor import Monitor
from repro.experiments.halo import halo_app
from repro.mpisim.config import MpiConfig, mvapich2_like
from repro.mpisim.endpoint import Endpoint
from repro.netsim.nic import Nic
from repro.runtime.launcher import run_app
from repro.sim import Engine
from repro.sim.engine import _SyncGroup
from repro.sim.events import Timeout
from repro.sim.process import ClockSync, Process
from tests.test_report_pins import CASES

# -- the budget ---------------------------------------------------------------
#: Every CPU cost a scheduler round trip: 4 896 events and 174 039 calls.
#: Per-rank clocks synchronised lazily: 3 008 and 105 078.  A sync that is
#: one reusable store entry and a write completion that is one sub-event:
#: 2 624 and 85 687.  Same-instant syncs in one store entry and transfers
#: resolved inside the digest loop: 2 624 and 83 917; the budgets sit ~3 %
#: above that.
MAX_ENGINE_EVENTS = 2_700
MAX_CALLS = 86_400
STAMPS = 3_200
#: Clock syncs the budget job schedules, and how many join the store entry
#: of the sync before them (exact: both repeat run to run).
SYNCS = 2_176
GROUPED_SYNCS = 2_040


def _budget_job():
    return run_app(halo_app, 32, mvapich2_like(), app_args=(6, 4096.0, 20e-6))


def test_engine_events_per_job():
    result = _budget_job()
    assert result.fabric.engine.processed_count <= MAX_ENGINE_EVENTS
    # The instrument itself is unchanged: same stamps as ever.
    assert sum(report.event_count for report in result.reports) == STAMPS


def measure_budget_job() -> "dict[str, int]":
    """The three counts of one budget job (``python -m
    tests.test_call_budget`` prints them; CI records that line)."""
    _budget_job()  # imports and memoized tables are not the job's calls
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(count)
    try:
        result = _budget_job()
    finally:
        sys.setprofile(None)
    return {
        "calls": calls,
        "events": result.fabric.engine.processed_count,
        "stamps": sum(report.event_count for report in result.reports),
    }


def test_python_calls_per_job():
    calls = measure_budget_job()["calls"]
    assert calls <= MAX_CALLS, calls


def measure_sync_store() -> "dict[str, int]":
    """How the budget job's clock syncs met the pending store: syncs
    scheduled, those that joined a same-instant group, heap pushes, engine
    events (``python -m tests.test_call_budget`` prints the share and the
    pushes per event)."""
    counts = collections.Counter()
    append, advance_to = _SyncGroup.append, Engine.advance_to

    def joined(group, member):
        counts["grouped"] += 1
        append(group, member)

    def pushed(heap, entry):
        counts["pushes"] += 1
        heapq.heappush(heap, entry)

    def synced(self, when):
        entry = advance_to(self, when)
        counts["syncs"] += entry.__class__ is ClockSync
        return entry

    with pytest.MonkeyPatch.context() as patches:
        patches.setattr(_SyncGroup, "append", joined)
        patches.setattr(engine_module, "heapq", types.SimpleNamespace(
            heappush=pushed, heappop=heapq.heappop, heapify=heapq.heapify,
            heapreplace=heapq.heapreplace))
        patches.setattr(Engine, "advance_to", synced)
        result = _budget_job()
    counts["events"] = result.fabric.engine.processed_count
    return dict(counts)


def test_lockstep_syncs_share_store_entries():
    """Grouping is decided by an observable fact only (a sync lands on the
    previous sync's instant); a change that silently stops it fails here."""
    counts = measure_sync_store()
    assert (counts["syncs"], counts["grouped"]) == (SYNCS, GROUPED_SYNCS)
    assert counts["events"] <= MAX_ENGINE_EVENTS


@contextlib.contextmanager
def _counting_timeouts():
    """Count every ``Timeout`` the simulator constructs (the list yielded)."""
    made = []

    class Counted(Timeout):
        __slots__ = ()

        def __new__(cls, *_args, **_kwargs):
            made.append(cls)
            return super().__new__(cls)

    with pytest.MonkeyPatch.context() as patches:
        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and getattr(module, "Timeout", None) is Timeout:
                patches.setattr(module, "Timeout", Counted)
        yield made


#: The ARMCI job of the budget: NAS MG class S on 4 ranks, one iteration.
ARMCI_BUDGET_CASE = "nas-mg-blocking"


def measure_armci_job() -> "dict[str, int]":
    """Engine events and ``Timeout`` objects of the ARMCI budget job."""
    with _counting_timeouts() as made:
        result = CASES[ARMCI_BUDGET_CASE]()
    return {"events": result.fabric.engine.processed_count,
            "Timeouts": len(made)}


def test_a_rank_sync_constructs_no_timeout(monkeypatch):
    """A rank's clock sync is its process's reusable store entry, in MPI
    and in ARMCI.  Only engine-context timers (retransmit, watchdog) are
    ``Timeout`` objects, and these jobs have none."""
    syncs = []
    advance_to = Engine.advance_to

    def watched(self, when):
        entry = advance_to(self, when)
        syncs.append(entry.__class__)
        return entry

    monkeypatch.setattr(Engine, "advance_to", watched)
    with _counting_timeouts() as made:
        result = _budget_job()
        assert made == []
        assert set(syncs) <= {ClockSync, type(None)} and ClockSync in syncs
        syncs.clear()
        CASES[ARMCI_BUDGET_CASE]()
        assert made == []
        assert set(syncs) <= {ClockSync, type(None)} and ClockSync in syncs
        # The counter does count: a timer armed from engine context is one.
        result.fabric.engine.timeout(1.0)
        result.fabric.engine.advance_to(result.fabric.engine.now + 1.0)
        assert len(made) == 2


def test_counts_repeat_exactly():
    first, second = _budget_job(), _budget_job()
    assert (first.fabric.engine.processed_count
            == second.fabric.engine.processed_count)


def test_pending_store_stays_a_few_entries_per_rank():
    """The traffic property "one binary heap is enough" rests on
    (``docs/performance.md``, "Why there is one pending store"): three
    pending entries per rank under direct delivery (a waiting rank's sync
    and the NIC completions in flight to and from it; the budget job
    peaks at 96 of 32 ranks), four under channel delivery.  An inflated
    store -- entries per message fragment instead of per completion, or
    dead entries left behind -- fails here instead of quietly needing a
    second store back."""
    ranks = 32
    assert 0 < _budget_job().fabric.engine.heap_high_water <= 3 * ranks
    sharded = run_app(halo_app, ranks, mvapich2_like(),
                      app_args=(6, 4096.0, 20e-6),
                      shards=2, shard_backend="inline")
    for shard in sharded.shard_stats:
        assert 0 < shard["heap_high_water"] <= 4 * len(shard["ranks"])


def test_no_knob_comes_back_unnoticed():
    """``run_app`` is down to 17 keywords after ``app`` and ``nprocs`` (the
    ``ShardConfig`` / ``Observe`` bundle of ROADMAP item 6 shrinks it, no
    PR grows it), and the sharded launcher selects neither a fence
    protocol nor a partition strategy."""
    import inspect

    from repro.sim.parallel import partition_ranks, run_app_sharded

    names = list(inspect.signature(run_app).parameters)
    assert names[:2] == ["app", "nprocs"] and len(names) == 2 + 17
    assert sum(name.startswith("shard_") for name in names) == 5
    sharded = inspect.signature(run_app_sharded).parameters
    assert not {"sync", "strategy", "edges"} & set(sharded)
    assert list(inspect.signature(partition_ranks).parameters) == [
        "nprocs", "shards"]


def test_there_is_one_launcher_and_one_fault_recipe():
    """``run_armci_app`` is ``run_app`` with an ARMCI config, not a second
    launcher with options of its own; and the watchdog every faulted run
    carries is written in one place (``repro.faults.plan.arm_faults``), so
    a front end cannot grow a private copy of half the recipe."""
    import inspect
    import pathlib

    import repro
    from repro.armci import run_armci_app

    kinds = inspect.Parameter
    armci = inspect.signature(run_armci_app).parameters
    named = [name for name, param in armci.items()
             if param.kind is not kinds.VAR_KEYWORD]
    assert named == ["app", "nprocs", "config"]
    assert named == list(inspect.signature(run_app).parameters)[:3]
    assert [p.kind for p in armci.values()][3:] == [kinds.VAR_KEYWORD]

    package = pathlib.Path(repro.__file__).parent
    builders = sorted(
        str(path.relative_to(package)) for path in package.rglob("*.py")
        if "WatchdogConfig(" in path.read_text(encoding="utf-8")
        and path.relative_to(package) != pathlib.Path("faults/watchdog.py"))
    assert builders == ["faults/plan.py"]


# -- the discipline -----------------------------------------------------------
class _Watch:
    """Who is running, and whose clock must agree with the engine."""

    def __init__(self) -> None:
        self.running: "Process | None" = None
        self.endpoints: "dict[int, Endpoint | ArmciEndpoint]" = {}
        self.checked = {"stamp": 0, "queue": 0, "post": 0}

    def owner_in_sync(self, node: int, what: str) -> None:
        if self.running is None:
            return  # engine context (a retransmit timer, a diagnostic)
        ep = self.endpoints[node]
        assert ep.clock.now == ep.engine.now, (
            f"rank {node} touched a NIC {what} at rank time "
            f"{ep.clock.now!r} with the engine at {ep.engine.now!r}")
        self.checked[what] += 1


class _WatchedQueue(collections.deque):
    """A NIC queue that checks the sync rule whenever its owner looks.

    Looking is ``if nic.cq:``.  Taking the head the rank saw there
    (``popleft``) may follow the per-item ``poll_cost`` unsynced: nothing
    that arrives in between changes which entry is the head.
    """

    watch: _Watch
    node: int

    def __len__(self) -> int:
        self.watch.owner_in_sync(self.node, "queue")
        return super().__len__()


@contextlib.contextmanager
def _watching():
    """Patch the stack so every stamp, queue look and NIC post is checked."""
    watch = _Watch()
    patches = pytest.MonkeyPatch()

    resume = Process._resume

    def watched_resume(self, event):
        outer, watch.running = watch.running, self
        try:
            resume(self, event)
        finally:
            watch.running = outer

    patches.setattr(Process, "_resume", watched_resume)

    def watched_init(self, *args, _init, **kwargs):
        _init(self, *args, **kwargs)
        watch.endpoints[self.rank] = self
        for nic in getattr(self, "nics", None) or [self.nic]:
            for name in ("cq", "inbound"):
                queue = _WatchedQueue(getattr(nic, name))
                queue.watch, queue.node = watch, self.rank
                setattr(nic, name, queue)
        if isinstance(self.monitor, Monitor):
            stamp, clock, engine = self.monitor.stamp, self.clock, self.engine

            def watched_stamp(kind, a, b):
                assert clock.now >= engine.now, (
                    f"rank {self.rank} stamped at {clock.now!r}, behind "
                    f"the engine's {engine.now!r}")
                watch.checked["stamp"] += 1
                stamp(kind, a, b)

            self.monitor.stamp = watched_stamp

    for library in (Endpoint, ArmciEndpoint):
        patches.setattr(library, "__init__", functools.partialmethod(
            watched_init, _init=library.__init__))

    for verb in ("post_send", "post_rdma_write", "post_rdma_read"):
        original = getattr(Nic, verb)

        def watched_post(self, *args, _original=original, **kwargs):
            watch.owner_in_sync(self.node, "post")
            return _original(self, *args, **kwargs)

        patches.setattr(Nic, verb, watched_post)
    try:
        yield watch
    finally:
        patches.undo()


def _strided_app(ctx, verb, strategy):
    """One strided put or get to the next rank, the ranks skewed apart."""
    ctx.malloc("face", (512,))
    yield from ctx.armci.barrier()
    yield from ctx.compute(3e-6 * (ctx.rank + 1))
    spec = StridedSpec(offset=0, seg_nbytes=256.0, stride=1024, count=4)
    target = (ctx.rank + 1) % ctx.size
    if verb == "put":
        yield from ctx.armci.put_strided(target, "face", spec, strategy=strategy)
    else:
        yield from ctx.armci.get_strided(target, "face", spec, strategy=strategy)
    yield from ctx.armci.barrier()


#: Strided RMA, which no pin case runs: one put and one get per strategy.
STRIDED_CASES = {
    f"armci-strided-{verb}-{strategy}": functools.partial(
        run_armci_app, _strided_app, 3, app_args=(verb, strategy))
    for verb in ("put", "get") for strategy in ("packed", "direct")
}

#: Every single-process case of the pin matrix, both libraries (shard
#: workers build their stacks elsewhere), and the strided cases.
DISCIPLINE_CASES = {
    **{name: run for name, run in CASES.items()
       if not name.startswith("sharded-")},
    **STRIDED_CASES,
}


@pytest.mark.parametrize("name", sorted(DISCIPLINE_CASES))
def test_rank_clock_discipline(name):
    with _watching() as watch:
        DISCIPLINE_CASES[name]()
    assert watch.checked["queue"] > 0
    if not name.startswith("bare-"):
        assert watch.checked["stamp"] > 0
    if name != "watchdog-deadlock":
        assert watch.checked["post"] > 0


def _skewed_ring_app(ctx, sizes, computes):
    """Ring exchange whose ranks drift apart: rank-scaled computation,
    probes and tests spread through it, sizes on both sides of the eager
    limit."""
    comm, size, rank = ctx.comm, ctx.size, ctx.rank
    right, left = (rank + 1) % size, (rank - 1) % size
    for step, (nbytes, compute) in enumerate(zip(sizes, computes)):
        recv = yield from comm.irecv(left, step)
        yield from ctx.compute(compute * (rank + 1))
        send = yield from comm.isend(right, step, float(nbytes), bufkey="ring")
        if step % 2:
            while not (yield from comm.test(recv)):
                yield from ctx.compute(compute)
        else:
            yield from comm.iprobe(left, step + 1)
        yield from comm.waitall([recv, send])
    return ctx.now


@given(
    st.integers(min_value=2, max_value=4),
    st.sampled_from(["pipelined", "rget", "rput"]),
    st.sampled_from(["send", "rdma_write"]),
    st.lists(st.tuples(st.integers(min_value=0, max_value=40_000),
                       st.floats(min_value=0.0, max_value=50e-6)),
             min_size=1, max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_rank_clock_discipline_holds_for_random_programs(
        nprocs, rndv_mode, eager_mode, steps):
    config = MpiConfig(name="t-prop", eager_limit=8192, frag_size=16384,
                       rndv_mode=rndv_mode, eager_mode=eager_mode)
    sizes = [nbytes for nbytes, _compute in steps]
    computes = [compute for _nbytes, compute in steps]
    with _watching() as watch:
        result = run_app(_skewed_ring_app, nprocs, config,
                         app_args=(sizes, computes))
    assert watch.checked["post"] > 0 and watch.checked["queue"] > 0
    # ``ctx.now`` is the rank's own time: what the application read when
    # it returned is not after what the job reports for MPI_Finalize.
    assert all(done <= finish for done, finish in
               zip(result.returns, result.rank_finish_times))


if __name__ == "__main__":
    print("budget job (32 ranks x 6 steps): "
          + ", ".join(f"{count:,} {what}"
                      for what, count in measure_budget_job().items()))
    store = measure_sync_store()
    print(f"budget job clock syncs: {store['grouped']:,} of {store['syncs']:,} "
          f"({store['grouped'] / store['syncs']:.1%}) joined a same-instant "
          f"group; heap pushes per engine event: "
          f"{store['pushes'] / store['events']:.3f}")
    print(f"ARMCI job ({ARMCI_BUDGET_CASE}, MG class S x 4 ranks x 1 "
          "iteration): " + ", ".join(f"{count:,} {what}" for what, count
                                     in measure_armci_job().items()))
