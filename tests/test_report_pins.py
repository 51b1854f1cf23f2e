"""Report pins: what "bit-identical" means beyond the bench workloads.

Each case below is one small seeded simulation, pinned in
``tests/data/report_pins.json`` to the sha256 of everything a run
reports: ``elapsed``, ``rank_finish_times``, every rank's
``report.to_dict()`` and -- where telemetry is on -- every window series
and every stamp of the raw event stream.  The matrix crosses both MPI
library presets with the eager path and the three rendezvous protocols,
2-9 ranks, the three microbenchmark call patterns, halo exchange, one
cell of each NAS kernel, zero-byte / exactly-eager-limit / self-send
messages, ``leave_pinned`` on and off, sub-communicator collectives,
resilience and instrumentation-loss fault plans, and telemetry.  One
more case pins the document ``python -m repro.tools.paper --quick
--no-cache --jobs 1`` writes, less its host-time footer: every figure
the paper CLI prints at quick sizes.

The pins say what a change to the *schedule* (how the simulator gets from
one simulated instant to the next) must not move: every simulated
timestamp and therefore every measure.  A change that legitimately moves
them regenerates the file on purpose::

    PYTHONPATH=src python -m tests.test_report_pins --write

and says so in its description; a change that claims bit-identical
reports must pass against the file its parent commit produced.

A moved report also invalidates every cached result that holds the old
one, so the file records the ``CACHE_VERSION`` it was written under:
``--write`` refuses to change a pin unless ``CACHE_VERSION`` was bumped
first, and a tier-1 test holds the recorded version equal to the
runner's.  Adding or dropping a case moves no report and needs no bump.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import operator
import pathlib
import sys
import tempfile
import typing

import pytest

from repro.armci import ArmciConfig, run_armci_app
from repro.experiments.halo import halo_app
from repro.experiments.micro import PATTERNS, _micro_app
from repro.experiments.runner import CACHE_VERSION
from repro.faults import FaultPlan, LinkDegradation, NicStall, ResilienceParams
from repro.faults.watchdog import WatchdogConfig
from repro.mpisim.config import mvapich2_like, openmpi_like
from repro.mpisim.status import ANY_SOURCE
from repro.nas.bt import bt_app
from repro.nas.cg import cg_app
from repro.nas.ep import ep_app
from repro.nas.ft import ft_app
from repro.nas.is_ import is_app
from repro.nas.lu import lu_app
from repro.nas.mg import mg_app
from repro.nas.sp import sp_app
from repro.netsim.params import NetworkParams
from repro.runtime.launcher import run_app
from repro.telemetry.collect import TelemetryConfig
from repro.tools import paper
from tests.oracles import write_pairs

PINS_PATH = pathlib.Path(__file__).parent / "data" / "report_pins.json"

LIBRARIES = {"openmpi": openmpi_like, "mvapich2": mvapich2_like}

#: protocol name -> (config overrides, message bytes).  "eager" stays
#: under both presets' eager limits; the rendezvous sizes span more than
#: one 128 KiB pipeline fragment.
PROTOCOLS: "dict[str, tuple[dict, float]]" = {
    "eager": ({}, 2048.0),
    "pipelined": ({"rndv_mode": "pipelined"}, 300000.0),
    "rget": ({"rndv_mode": "rget"}, 300000.0),
    "rput": ({"rndv_mode": "rput"}, 300000.0),
}


def _config(library: str, protocol: str, **extra: object) -> typing.Any:
    overrides = dict(PROTOCOLS[protocol][0], **extra)
    return LIBRARIES[library](**overrides)


# ---------------------------------------------------------------------------
# Applications the stock experiments do not provide
# ---------------------------------------------------------------------------
def _self_send_app(ctx, nbytes):
    """Rank-to-self messages in both matching orders, plus ring traffic."""
    comm, me = ctx.comm, ctx.rank
    recv = yield from comm.irecv(me, 5)
    send = yield from comm.isend(me, 5, nbytes, data="posted-first")
    yield from ctx.compute(10e-6)
    yield from comm.waitall([recv, send])
    send = yield from comm.isend(me, 6, nbytes, data="unexpected-first")
    yield from ctx.compute(5e-6)
    _status, data = yield from comm.recv(me, 6)
    assert data == "unexpected-first"
    yield from comm.wait(send)
    if ctx.size > 1:
        yield from comm.sendrecv((me + 1) % ctx.size, 7, nbytes,
                                 (me - 1) % ctx.size, 7, data=me)
    return ctx.now


def _subcomm_app(ctx, nbytes):
    """Collectives inside ``MPI_Comm_split`` / ``MPI_Comm_dup`` groups."""
    comm = ctx.comm
    sub = yield from comm.split(color=ctx.rank % 2, key=-ctx.rank)
    yield from ctx.compute(7e-6 * (ctx.rank + 1))
    total = yield from sub.allreduce(ctx.rank, nbytes)
    yield from sub.bcast(0, nbytes, data=total)
    yield from ctx.compute(3e-6)
    yield from sub.alltoall(nbytes)
    yield from sub.barrier()
    dup = yield from comm.dup()
    yield from dup.allgather(64.0, ctx.rank)
    yield from comm.barrier()
    return total


def _collectives_app(ctx, nbytes):
    """Every world collective once, with rank-skewed computation between."""
    comm, size, rank = ctx.comm, ctx.size, ctx.rank
    yield from comm.barrier()
    yield from ctx.compute(4e-6 * (rank + 1))
    yield from comm.bcast(size - 1, nbytes, data="b")
    yield from comm.reduce(0, rank + 1, nbytes)
    yield from ctx.compute(9e-6)
    yield from comm.allreduce(rank, nbytes, op=max)
    yield from comm.alltoall(nbytes)
    yield from comm.alltoallv([nbytes * (1 + (rank + d) % 3) for d in range(size)])
    yield from ctx.compute(2e-6 * (size - rank))
    yield from comm.scan(rank, 8.0, op=operator.add)
    yield from comm.reduce_scatter(list(range(size)), nbytes)
    yield from comm.allgather(nbytes, rank)
    yield from comm.gather(0, nbytes, rank)
    yield from comm.scatter(0, nbytes, list(range(size)) if rank == 0 else None)
    yield from comm.gatherv(size - 1, nbytes * (rank + 1), rank)
    yield from comm.scatterv(
        0, [nbytes * (d + 1) for d in range(size)] if rank == 0 else None)
    return ctx.now


def _p2p_medley_app(ctx, nbytes):
    """The point-to-point calls the microbenchmarks leave out (2 ranks)."""
    comm, rank = ctx.comm, ctx.rank
    other = 1 - rank
    # sendrecv, then a probed receive
    yield from comm.sendrecv(other, 1, nbytes, other, 1, data=rank)
    if rank == 0:
        yield from comm.send(1, 2, nbytes, data="probe-me")
    else:
        status = yield from comm.probe(ANY_SOURCE, 2)
        assert status.nbytes == nbytes
        yield from comm.recv(status.source, 2)
    # iprobe polling spread through computation (the NAS SP tuning)
    if rank == 0:
        yield from ctx.compute(30e-6)
        yield from comm.send(1, 3, nbytes)
    else:
        while (yield from comm.iprobe(0, 3)) is None:
            yield from ctx.compute(4e-6)
        yield from comm.recv(0, 3)
    # waitany / waitsome / test / testall over several requests
    if rank == 0:
        reqs = []
        for tag in (10, 11, 12):
            reqs.append((yield from comm.isend(1, tag, nbytes, bufkey=tag)))
            yield from ctx.compute(6e-6)
        first = yield from comm.waitany(reqs)
        yield from comm.waitsome(reqs)
        while not (yield from comm.testall(reqs)):
            yield from ctx.compute(3e-6)
        assert reqs[first].done
    else:
        reqs = []
        for tag in (12, 11, 10):
            reqs.append((yield from comm.irecv(0, tag)))
        while not (yield from comm.test(reqs[2])):
            yield from ctx.compute(5e-6)
        yield from comm.waitall(reqs)
    # persistent requests, twice round
    psend = comm.send_init(other, 20, nbytes, data=rank, bufkey="persist")
    precv = comm.recv_init(other, 20)
    for _ in range(2):
        yield from comm.startall([precv, psend])
        yield from ctx.compute(8e-6)
        yield from comm.wait_persistent(psend)
        yield from comm.wait_persistent(precv)
    # a receive nobody answers, cancelled
    orphan = yield from comm.irecv(other, 99)
    assert (yield from comm.cancel(orphan))
    return ctx.now


def _sections_app(ctx, nbytes):
    """Named sections and a paused stretch around a ring exchange."""
    comm, size, rank = ctx.comm, ctx.size, ctx.rank
    right, left = (rank + 1) % size, (rank - 1) % size
    for step in range(3):
        with ctx.section("exchange"):
            recv = yield from comm.irecv(left, step)
            send = yield from comm.isend(right, step, nbytes, bufkey="ring")
            with ctx.section("interior"):
                yield from ctx.compute(25e-6)
            yield from comm.waitall([recv, send])
        if step == 1:
            ctx.monitor.pause()
            yield from ctx.compute(11e-6)
            yield from comm.barrier()
            ctx.monitor.resume()
    return ctx.now


def _deadlock_app(ctx):
    """Rank 0 waits for a message nobody sends; the watchdog stops it."""
    if ctx.rank == 0:
        yield from ctx.compute(5e-6)
        yield from ctx.comm.recv(1, 0)
    else:
        yield from ctx.comm.send(0, 1, 512.0)


def _armci_app(ctx, nbytes, blocking):
    """Put / get / fence ring over ARMCI."""
    armci = ctx.armci
    ctx.malloc("buf", (64,))
    yield from armci.barrier()
    target = (ctx.rank + 1) % ctx.size
    for _ in range(3):
        if blocking:
            yield from armci.put(target, "buf", nbytes=nbytes)
            yield from ctx.compute(12e-6)
        else:
            handle = yield from armci.nbput(target, "buf", nbytes=nbytes)
            yield from ctx.compute(12e-6)
            yield from armci.wait(handle)
        yield from armci.get(target, "buf", nbytes=nbytes)
    yield from armci.barrier()
    return ctx.now


# ---------------------------------------------------------------------------
# The matrix
# ---------------------------------------------------------------------------
Case = typing.Callable[[], typing.Any]


def _cases() -> "dict[str, Case]":
    cases: "dict[str, Case]" = {}

    def add(name: str, app: typing.Callable, nprocs: int, config: typing.Any,
            app_args: tuple = (), path: typing.Callable = contextlib.nullcontext,
            **kwargs: object) -> None:
        assert name not in cases, name

        def case():
            with path():
                return run_app(app, nprocs, config, app_args=app_args,
                               label=name, **kwargs)

        cases[name] = case

    for lib in LIBRARIES:
        for proto, (_over, nbytes) in PROTOCOLS.items():
            config = _config(lib, proto)
            # the two-process overlap test, every call pattern
            for pattern in PATTERNS:
                for compute in (0.0, 40e-6):
                    add(f"micro-{lib}-{proto}-{pattern}-c{compute:g}",
                        _micro_app, 2, config,
                        (pattern, nbytes, compute, 4, 1))
            # halo exchange, 2-9 ranks
            for ranks in (2, 3, 5, 9):
                add(f"halo-{lib}-{proto}-n{ranks}", halo_app, ranks, config,
                    (5, nbytes, 15e-6))

        config = LIBRARIES[lib]()
        limit = float(config.eager_limit)
        # zero bytes, exactly the eager limit, one byte over it
        for nbytes in (0.0, limit, limit + 1.0):
            for pattern in ("isend_irecv", "send_irecv"):
                add(f"size-{lib}-{int(nbytes)}B-{pattern}", _micro_app, 2,
                    config, (pattern, nbytes, 20e-6, 3, 1))
        for nbytes in (0.0, 1024.0, 300000.0):
            add(f"selfsend-{lib}-{int(nbytes)}B", _self_send_app, 3, config,
                (nbytes,))
        # registration cache on / off over a reused send buffer
        for pinned in (False, True):
            add(f"pinned-{lib}-{'on' if pinned else 'off'}", _micro_app, 2,
                LIBRARIES[lib](rndv_mode="rget", leave_pinned=pinned),
                ("isend_irecv", 300000.0, 60e-6, 4, 0))
        for ranks in (4, 6, 9):
            add(f"subcomm-{lib}-n{ranks}", _subcomm_app, ranks, config,
                (4096.0,))
        for ranks in (3, 4, 8):
            for nbytes in (512.0, 100000.0):
                add(f"collectives-{lib}-n{ranks}-{int(nbytes)}B",
                    _collectives_app, ranks, config, (nbytes,))
        for nbytes in (1024.0, 200000.0):
            add(f"p2p-{lib}-{int(nbytes)}B", _p2p_medley_app, 2, config,
                (nbytes,))
        add(f"sections-{lib}", _sections_app, 4, config, (8192.0,))
        add(f"bruck-{lib}", _collectives_app, 5,
            LIBRARIES[lib](alltoall_algorithm="bruck"), (256.0,))

        # -- fault plans -----------------------------------------------------
        lossy = NetworkParams(faults=FaultPlan(
            seed=3, drop_prob=0.1, dup_prob=0.05, reorder_prob=0.05))
        add(f"resilience-{lib}", halo_app, 4,
            LIBRARIES[lib](resilience=ResilienceParams(ack_timeout=60e-6),
                           eager_mode="send"),
            (4, 2048.0, 15e-6), params=lossy)
        add(f"stamploss-{lib}", halo_app, 4, config, (4, 2048.0, 15e-6),
            params=NetworkParams(faults=FaultPlan(seed=5, event_drop_prob=0.2)))
        add(f"ring-{lib}", halo_app, 4, config, (6, 2048.0, 15e-6),
            params=NetworkParams(faults=FaultPlan(seed=5, ring_capacity=32)))
        add(f"timing-{lib}", halo_app, 4, _config(lib, "rget"),
            (3, 300000.0, 15e-6),
            params=NetworkParams(faults=FaultPlan(
                seed=7,
                degradations=(LinkDegradation(1, 0.0, 2e-3, 3.0),),
                stalls=(NicStall(2, 1e-4, 4e-4),),
                stragglers=((3, 2.5),))))

        # -- telemetry (window series and every stamp are hashed too) --------
        for proto in ("eager", "pipelined"):
            add(f"telemetry-{lib}-{proto}", halo_app, 4, _config(lib, proto),
                (4, PROTOCOLS[proto][1], 15e-6),
                telemetry=TelemetryConfig(window_width=2e-5))
        add(f"telemetry-{lib}-coalescing", halo_app, 3, config,
            (12, 2048.0, 15e-6),
            telemetry=TelemetryConfig(window_width=2e-6, max_windows=8))

        # -- other ways to run the same stack --------------------------------
        add(f"multirail-{lib}", halo_app, 3,
            _config(lib, "pipelined", nics_per_node=2), (2, 600000.0, 15e-6))
        add(f"jitter-{lib}", halo_app, 4, config, (3, 2048.0, 15e-6),
            params=NetworkParams(latency_jitter_frac=0.2), seed=11)
        add(f"packetpath-{lib}", halo_app, 3, _config(lib, "pipelined"),
            (2, 300000.0, 15e-6), path=write_pairs)
        add(f"channel-{lib}", halo_app, 4, config, (3, 2048.0, 15e-6),
            params=NetworkParams(delivery="channel"))
        add(f"sharded-{lib}", halo_app, 6, config, (3, 2048.0, 15e-6),
            shards=2, shard_backend="inline")
        add(f"bare-{lib}", halo_app, 4, _config(lib, "rget", instrument=False),
            (3, 300000.0, 15e-6))
        add(f"watchdog-armed-{lib}", halo_app, 4, config, (3, 2048.0, 15e-6),
            watchdog=WatchdogConfig(stall_sim_time=1e-3))

    add("watchdog-deadlock", _deadlock_app, 2, openmpi_like(),
        watchdog=WatchdogConfig(stall_sim_time=1e-3))

    # -- one cell of each NAS kernel -------------------------------------------
    for name, app, lib, nprocs, args in (
        ("bt", bt_app, "openmpi", 4, ("S", 1, None)),
        ("cg", cg_app, "openmpi", 4, ("S", 1, None)),
        ("lu", lu_app, "mvapich2", 4, ("S", 1, None, 4)),
        ("ft", ft_app, "mvapich2", 4, ("S", 1, None)),
        ("sp", sp_app, "mvapich2", 4, ("S", 1, None)),
        ("sp-modified", sp_app, "mvapich2", 4, ("S", 1, None, True)),
        ("ep", ep_app, "openmpi", 4, ("S", None, 1e-3)),
        ("is", is_app, "mvapich2", 4, ("S", 1, None)),
    ):
        add(f"nas-{name}", app, nprocs, LIBRARIES[lib](), args)
    for blocking in (True, False):
        cases[f"nas-mg-{'blocking' if blocking else 'nonblocking'}"] = (
            lambda blocking=blocking: run_armci_app(
                mg_app, 4, config=ArmciConfig(), label="mg",
                app_args=("S", 1, None, blocking)))
        cases[f"armci-{'blocking' if blocking else 'nonblocking'}"] = (
            lambda blocking=blocking: run_armci_app(
                _armci_app, 3, config=ArmciConfig(), label="armci",
                app_args=(4096.0, blocking)))
    return cases


def _paper_quick_document() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp, "paper.md")
        paper.main(["--quick", "--no-cache", "--jobs", "1", "--out", str(out)])
        lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    return "".join(line for line in lines
                   if not line.startswith("_(regenerated in "))


CASES = _cases()
#: Everything pinned: the run matrix plus the paper CLI's quick document.
PINNED: "dict[str, Case]" = {**CASES,
                              "paper-quick-document": _paper_quick_document}


def digest(result: typing.Any) -> str:
    """sha256 over everything the run reports, floats at full precision
    (or over the document, for the paper case)."""
    if isinstance(result, str):
        return hashlib.sha256(result.encode("utf-8")).hexdigest()
    # The four ARMCI cases were pinned when their result type carried no
    # finish times (``elapsed``, their maximum, is in the digest); the pin
    # file is not regenerated for a payload-shape change.
    finish_times = ([] if isinstance(result.config, ArmciConfig)
                    else list(getattr(result, "rank_finish_times", ())))
    payload: "dict[str, object]" = {
        "elapsed": result.elapsed,
        "rank_finish_times": finish_times,
        "reports": [None if report is None else report.to_dict()
                    for report in result.reports],
    }
    telemetry = getattr(result, "telemetry", None)
    if telemetry is not None:
        payload["windows"] = [rank.series.to_dict()
                              for rank in telemetry.per_rank]
        payload["events"] = [
            [[int(kind), time, a, b] for kind, time, a, b in rank.events]
            for rank in telemetry.per_rank if rank.events is not None]
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def _load_file() -> "dict[str, typing.Any]":
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _load_pins() -> "dict[str, str]":
    return _load_file()["pins"]


def test_pin_file_covers_exactly_the_matrix():
    assert sorted(_load_pins()) == sorted(PINNED)


def test_pin_file_was_written_under_the_current_cache_version():
    assert _load_file()["cache_version"] == CACHE_VERSION, (
        "report_pins.json and experiments.runner.CACHE_VERSION disagree: "
        "re-pin with `python -m tests.test_report_pins --write`"
    )


@pytest.mark.parametrize("name", sorted(PINNED))
def test_report_is_pinned(name):
    assert digest(PINNED[name]()) == _load_pins()[name], (
        f"{name}: elapsed, finish times, a rank's report or a figure moved"
    )


def _write() -> int:
    pins = {name: digest(PINNED[name]()) for name in sorted(PINNED)}
    old = _load_file()
    moved = sorted(name for name, pin in pins.items()
                   if old["pins"].get(name, pin) != pin)
    if moved and old["cache_version"] == CACHE_VERSION:
        print(f"refusing to write {PINS_PATH}: {len(moved)} report(s) moved "
              f"({', '.join(moved)}) under the CACHE_VERSION they were "
              f"pinned with ({CACHE_VERSION}); bump "
              "repro.experiments.runner.CACHE_VERSION so no cached result "
              "answers with the old figures, then re-run", file=sys.stderr)
        return 1
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"cache_version": CACHE_VERSION, "format": 1, "pins": pins},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(pins)} pins to {PINS_PATH}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_report_pins --write")
    sys.exit(_write())
