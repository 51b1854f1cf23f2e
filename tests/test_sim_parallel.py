"""Sharded parallel-DES engine: partitioning, edge cases, bit-parity.

The sharded engine (:mod:`repro.sim.parallel`) is only admissible under
the same rule as the network fast path: a sharded run must be
*bit-identical* to a single-process channel-delivery run of the same
seed -- every overlap report, finish time, and compute log equal.  These
tests cover the partitioner's edge cases (one rank per shard, rank
counts not divisible by the shard count, zero cross-shard traffic), the
option surface, and a hypothesis differential across random small
configs and seeds.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import struct
import threading
import time

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.experiments.halo import halo_app
from repro.mpisim.config import MpiConfig, mvapich2_like
from repro.mpisim.packets import EagerPacket
from repro.netsim import channel as ch
from repro.netsim.differential import assert_sharded_identical, compare_runs
from repro.netsim.params import NetworkParams
from repro.netsim.transport import TransportOptions
from repro.netsim.wire import pack_frame, unpack_frame
from repro.runtime import run_app
from repro.sim.parallel import ShardHostLost, partition_ranks, run_app_sharded
from tests.oracles import checking_fences

_TAG = 61


def _pair_app(ctx, nbytes=2048.0, rounds=3):
    """Ranks talk only inside disjoint pairs (0,1), (2,3), ..."""
    if ctx.size % 2:
        raise AssertionError("pair app needs an even rank count")
    peer = ctx.rank ^ 1
    for _ in range(rounds):
        r = yield from ctx.comm.irecv(peer, _TAG)
        s = yield from ctx.comm.isend(peer, _TAG, nbytes)
        yield from ctx.compute(10.0e-6)
        yield from ctx.comm.waitall([r, s])
    return ctx.rank


# ---------------------------------------------------------------- partitioner

def test_partition_contiguous_divisible():
    assert partition_ranks(8, 4) == [[0, 1], [2, 3], [4, 5], [6, 7]]


def test_partition_non_divisible_sizes_differ_by_at_most_one():
    parts = partition_ranks(10, 4)
    assert [len(p) for p in parts] == [3, 3, 2, 2]
    assert sorted(r for p in parts for r in p) == list(range(10))


def test_partition_one_rank_per_shard():
    assert partition_ranks(3, 3) == [[0], [1], [2]]
    # More shards than ranks collapses to one rank per shard.
    assert partition_ranks(3, 7) == [[0], [1], [2]]


def test_partition_validation():
    with pytest.raises(ValueError):
        partition_ranks(0, 1)
    with pytest.raises(ValueError):
        partition_ranks(4, 0)


def test_explicit_partition_must_cover_every_rank():
    with pytest.raises(ValueError):
        run_app_sharded(_pair_app, 4, 2, backend="inline",
                        partition=[[0, 1], [2]])
    with pytest.raises(ValueError):
        run_app_sharded(_pair_app, 4, 2, backend="inline",
                        partition=[[0, 1], [1, 2, 3]])
    with pytest.raises(ValueError, match="empty shard"):
        run_app_sharded(_pair_app, 4, 2, backend="inline",
                        partition=[[0, 1, 2, 3], []])


def test_explicit_partition_must_have_one_list_per_shard():
    # Used to run len(partition) shards without a word.
    halves = [[0, 1], [2, 3]]
    for shards in (1, 3):
        with pytest.raises(ValueError, match=f"2 shard.*shards={shards}"):
            run_app(_pair_app, 4, shards=shards, shard_backend="inline",
                    shard_partition=halves)
    assert run_app(_pair_app, 4, shards=2, shard_backend="inline",
                   shard_partition=halves).sync_stats["shards"] == 2


# ------------------------------------------------------------- option surface

def test_unsupported_observers_raise():
    from repro.metrics import MetricsRegistry

    with pytest.raises(ValueError, match="metrics"):
        run_app(_pair_app, 4, shards=2, metrics=MetricsRegistry())
    with pytest.raises(ValueError, match="backend"):
        run_app_sharded(_pair_app, 4, 2, backend="thread")


def test_there_is_one_fence_protocol():
    # run_app keeps the keyword only for the frozen bench/workloads.py.
    for shards in (None, 2):
        with pytest.raises(ValueError, match="removed.*'window' is the only"):
            run_app(_pair_app, 4, shards=shards, shard_sync="null")
    result = run_app(_pair_app, 4, shards=2, shard_sync="window",
                     shard_backend="inline")
    assert "mode" not in result.sync_stats


def test_zero_lookahead_rejected():
    params = NetworkParams(latency=0.0, per_message_overhead=0.0)
    with pytest.raises(ValueError, match="lookahead"):
        run_app_sharded(_pair_app, 4, 2, params=params, backend="inline")


# ----------------------------------------------------------------- edge cases

def test_one_rank_per_shard_matches_single():
    assert_sharded_identical(_pair_app, 4, 4, backend="inline")


def test_both_entry_points_build_their_ranks_with_the_one_builder(monkeypatch):
    # run_app builds all ranks with RankSet, each shard worker its slice:
    # one set for the single-process side, one per rank for the other.
    from repro.runtime import launcher
    from repro.sim import parallel

    built = []

    class Counting(launcher.RankSet):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(sorted(self.contexts))

    monkeypatch.setattr(launcher, "RankSet", Counting)
    monkeypatch.setattr(parallel, "RankSet", Counting)
    assert_sharded_identical(halo_app, 6, 6, backend="inline",
                             config=mvapich2_like(),
                             app_args=(3, 2048.0, 15.0e-6))
    assert built == [list(range(6))] + [[r] for r in range(6)]


def _wedged_app(ctx):
    if ctx.rank < 2:
        yield from ctx.comm.recv(3, _TAG)  # the message that never comes
    return ctx.rank


def test_a_deadlock_reads_the_same_from_both_entry_points():
    messages = []
    for shards in (None, 2):
        with pytest.raises(RuntimeError, match="deadlock") as info:
            run_app(_wedged_app, 4, shards=shards, shard_backend="inline")
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "2 rank(s) never finished" in messages[0]


def test_non_divisible_ranks_match_single():
    assert_sharded_identical(halo_app, 5, 2, backend="inline",
                             app_args=(4, 1024.0, 15.0e-6))


def test_zero_cross_shard_traffic():
    # The pair app's communicating pairs never straddle the contiguous
    # 2-shard cut of 4 ranks, so the coordinator must carry zero payload
    # messages -- and the run must still terminate and match exactly.
    deltas = assert_sharded_identical(_pair_app, 4, 2, backend="inline")
    assert deltas
    result = run_app_sharded(_pair_app, 4, 2, backend="inline")
    assert result.sync_stats["messages"] == 0
    assert all(s["msgs_across"] == 0 for s in result.shard_stats)


def test_cross_shard_traffic_counted():
    result = run_app_sharded(halo_app, 6, 2, backend="inline",
                             app_args=(3, 1024.0, 15.0e-6))
    assert result.sync_stats["messages"] > 0


def test_process_backend_matches_single():
    assert_sharded_identical(halo_app, 4, 2, backend="process",
                             app_args=(3, 1024.0, 15.0e-6))


def test_shards_one_matches_single():
    assert_sharded_identical(halo_app, 4, 1, backend="inline",
                             app_args=(3, 1024.0, 15.0e-6))


# ------------------------------------------------- hypothesis differential

_CONFIGS = (
    MpiConfig(name="s-eager", eager_limit=1 << 16),
    MpiConfig(name="s-rndv", eager_limit=512, rndv_mode="rget"),
    MpiConfig(name="s-pipe", eager_limit=512, rndv_mode="pipelined",
              frag_size=2048),
)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    nprocs=st.integers(min_value=2, max_value=6),
    shards=st.integers(min_value=2, max_value=3),
    config=st.sampled_from(_CONFIGS),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    jitter=st.sampled_from((0.0, 0.25)),
    nbytes=st.sampled_from((64.0, 1024.0, 8192.0)),
)
def test_hypothesis_sharded_bit_identical(nprocs, shards, config, seed,
                                          jitter, nbytes):
    """Random small configs: sharded reports must equal single-process."""
    params = NetworkParams(latency_jitter_frac=jitter)
    assert_sharded_identical(
        halo_app, nprocs, shards, config=config,
        params=dataclasses.replace(params),
        app_args=(3, nbytes, 12.0e-6), seed=seed,
        backend="inline", record_transfers=True,
    )


# ----------------------------------------------------- high-rank partitioning

def test_partition_4096_contiguous_blocks():
    parts = partition_ranks(4096, 8)
    assert [len(p) for p in parts] == [512] * 8
    # Contiguous ascending blocks covering every rank exactly once.
    assert [r for p in parts for r in p] == list(range(4096))


def test_partition_4096_non_divisible_balance():
    parts = partition_ranks(4096, 7)
    sizes = [len(p) for p in parts]
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == 4096
    assert sorted(r for p in parts for r in p) == list(range(4096))


# ------------------------------------------------------ wire codec round-trip

_FLOATS = st.floats(allow_nan=False)
_DATA = st.sampled_from((None, "bounce-0", "bounce-1", 17, (3, 4), b"x"))

_HOT_MSGS = st.builds(
    ch.ChannelMsg,
    when=_FLOATS, key=st.integers(-(2 ** 63), 2 ** 63 - 1),
    kind=st.just(ch.DELIVER),
    src_node=st.integers(0, 2 ** 31 - 1), src_port=st.integers(0, 65535),
    dst_node=st.integers(0, 2 ** 31 - 1), dst_port=st.integers(0, 65535),
    nbytes=_FLOATS,
    payload=st.builds(
        EagerPacket,
        seq=st.integers(-(2 ** 63), 2 ** 63 - 1),
        src=st.integers(-(2 ** 31), 2 ** 31 - 1),
        tag=st.integers(-(2 ** 31), 2 ** 31 - 1),
        nbytes=_FLOATS, data=_DATA,
        ctx=st.integers(-(2 ** 31), 2 ** 31 - 1),
    ),
    extra=st.tuples(_FLOATS, st.booleans(), st.booleans()),
)

#: Messages the columnar path must decline: control kinds, out-of-range
#: or wrongly-typed columns, unhashable payload data.
_REST_MSGS = st.one_of(
    st.builds(
        ch.ChannelMsg,
        when=_FLOATS, key=st.integers(0, 2 ** 40),
        kind=st.sampled_from((ch.PLACE, ch.ACK, ch.READ_REQ, ch.READ_DATA)),
        src_node=st.integers(0, 4095), src_port=st.just(0),
        dst_node=st.integers(0, 4095), dst_port=st.just(0),
        nbytes=_FLOATS,
        payload=st.just(None),
        extra=st.one_of(st.just(("token", 3)), st.integers(0, 9),
                        st.just(None)),
    ),
    # Hot-shaped but with unhashable payload data.
    _HOT_MSGS.map(lambda m: m._replace(
        payload=m.payload._replace(data=[1, 2]))),
    # Hot-shaped but a column out of its fixed-width range.
    _HOT_MSGS.map(lambda m: m._replace(src_node=2 ** 31)),
    # Hot-shaped but a float column carrying an int.
    _HOT_MSGS.map(lambda m: m._replace(nbytes=4096)),
)


def _assert_bit_exact(a, b) -> None:
    assert type(a) is type(b)
    if isinstance(a, float):
        assert struct.pack("<d", a) == struct.pack("<d", b)
    elif isinstance(a, EagerPacket):
        for va, vb in zip(a, b):
            _assert_bit_exact(va, vb)
    else:
        assert a == b


def test_wire_codec_empty_frame():
    frame = pack_frame([])
    assert frame.n == 0 and frame.rest == () and frame.order is None
    assert unpack_frame(frame) == []


@settings(max_examples=60, deadline=None)
@given(msgs=st.lists(st.one_of(_HOT_MSGS, _REST_MSGS), max_size=24))
def test_hypothesis_wire_codec_round_trip(msgs):
    """unpack(pack(msgs)) must reproduce every field bit-exactly."""
    out = unpack_frame(pack_frame(msgs))
    assert out == msgs
    for orig, back in zip(msgs, out):
        for va, vb in zip(orig, back):
            _assert_bit_exact(va, vb)


# ----------------------------------------------------- high-rank differential

def test_high_rank_process_backend_matches_single():
    # 256 ranks through forked workers exercises the batched wire frames
    # end to end (RDMA-write eager mode floods the coordinator with
    # PLACE/ACK obligations as well as hot eager deliveries).
    assert_sharded_identical(
        halo_app, 256, 4, backend="process",
        config=mvapich2_like(), app_args=(3, 2048.0, 15.0e-6),
    )


def test_backends_three_way_bit_identical():
    # inline hands message lists over by reference (no codec, no
    # transport); process and socket both speak the framed session.  All
    # three must agree bit for bit -- with the single-process ground
    # truth and with each other.
    from repro.sim.remote import WorkerServer

    kwargs = dict(config=mvapich2_like(), app_args=(3, 2048.0, 15.0e-6))
    assert_sharded_identical(halo_app, 16, 4, backend="inline", **kwargs)
    with WorkerServer() as w0, WorkerServer() as w1:
        extra = {"inline": {}, "process": {},
                 "socket": {"shard_hosts": [w0.address, w1.address]}}
        runs = {
            backend: run_app(halo_app, 16, shards=4, shard_backend=backend,
                             **more, **kwargs)
            for backend, more in extra.items()
        }
    inline = runs["inline"]
    assert "transport" not in inline.sync_stats
    for backend in ("process", "socket"):
        other = runs[backend]
        assert all(d.equal for d in compare_runs(inline, other)), backend
        assert (other.sync_stats["messages"]
                == inline.sync_stats["messages"])
        wire = other.sync_stats["transport"]
        assert wire["payload_bytes"] > 0 and wire["frames_in"] > 0
        assert len(wire["hosts"]) == 4
    assert all(h.startswith("local:")
               for h in runs["process"].sync_stats["transport"]["hosts"])


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    config=st.sampled_from((_CONFIGS[0], mvapich2_like())),
)
def test_hypothesis_high_rank_bit_identical(seed, config):
    """256-rank sharded runs must equal single-process, any seed."""
    assert_sharded_identical(
        halo_app, 256, 4, config=config, seed=seed,
        backend="inline", app_args=(2, 2048.0, 10.0e-6),
    )


# --------------------------------------------------------- fence oracle

#: Ranks dealt round-robin: every halo neighbour lives on another shard.
_SCATTERED = [[r for r in range(24) if r % 3 == s] for s in range(3)]


@pytest.mark.parametrize("partition", [None, _SCATTERED],
                         ids=["contiguous", "scattered"])
def test_fences_equal_the_reference_at_every_call(partition):
    # mvapich2_like sends eager data by RDMA write, so placement-ACK
    # obligations are in flight at many of the compared fence vectors.
    with checking_fences() as checks:
        result = run_app(
            halo_app, 24, shards=3, shard_backend="inline",
            shard_partition=partition, config=mvapich2_like(),
            app_args=(4, 2048.0, 15.0e-6),
        )
    assert checks.with_obligations > 0
    # One fence vector per barrier round, each on changed inputs.
    assert checks.compared == result.sync_stats["rounds"] > 0


# ----------------------------------------------------------- halo smoke CLI

def test_halo_cli_check_json(capsys):
    from repro.experiments import halo

    rc = halo.main(["--ranks", "8", "--steps", "2", "--shards", "2",
                    "--backend", "inline", "--check", "--json"])
    assert rc == 0
    summary = __import__("json").loads(capsys.readouterr().out)
    assert summary["checked"] is True
    assert summary["ranks"] == 8 and summary["shards"] == 2
    assert summary["events"] > 0 and summary["rounds"] > 0


def test_halo_cli_worker_fault_needs_spawned_workers(capsys):
    # On externally started --hosts (or non-socket backends) the fault
    # spec cannot be armed; silently ignoring it would make a
    # fault-injection run look like a healthy pass.
    from repro.experiments import halo

    with pytest.raises(SystemExit) as excinfo:
        halo.main(["--backend", "socket", "--hosts", "127.0.0.1:1",
                   "--worker-fault", "drop-after=5"])
    assert excinfo.value.code == 2
    assert "--worker-fault" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        halo.main(["--backend", "process", "--worker-fault", "drop-after=5"])


def test_halo_cli_plain_run(capsys):
    from repro.experiments import halo

    rc = halo.main(["--ranks", "8", "--steps", "2", "--shards", "2",
                    "--backend", "inline"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "halo 8 ranks" in out and "shards=2:" in out
    # No flag selects a fence protocol any more.
    with pytest.raises(SystemExit):
        halo.main(["--ranks", "8", "--sync", "window"])


# ------------------------------------------- fork-worker loss trichotomy

_COORDINATOR_PID = os.getpid()

#: Fast loss detection: frequent heartbeats, short silence budget.
_FAST = TransportOptions(heartbeat_interval=0.1, host_timeout=1.5)


def _self_signalling_app(ctx, signum, victim=5, at_step=2, steps=6):
    """Halo exchange whose ``victim`` rank signals its own *worker
    process* at ``at_step`` (never the coordinator's process)."""
    left, right = (ctx.rank - 1) % ctx.size, (ctx.rank + 1) % ctx.size
    for step in range(steps):
        if (step == at_step and ctx.rank == victim
                and os.getpid() != _COORDINATOR_PID):
            os.kill(os.getpid(), signum)
        rl = yield from ctx.comm.irecv(left, _TAG)
        rr = yield from ctx.comm.irecv(right, _TAG)
        sl = yield from ctx.comm.isend(left, _TAG, 2048.0)
        sr = yield from ctx.comm.isend(right, _TAG, 2048.0)
        yield from ctx.compute(10.0e-6)
        yield from ctx.comm.waitall([rl, rr, sl, sr])
    return steps


@pytest.mark.parametrize("signum,reason", (
    pytest.param(signal.SIGKILL, "connection-lost", id="sigkill"),
    pytest.param(signal.SIGSTOP, "heartbeat-timeout", id="sigstop"),
))
def test_lost_fork_worker_is_diagnosed_within_deadline(signum, reason):
    # Right answer or a clean, diagnosed failure inside the deadline:
    # a killed fork worker reads as EOF at once, a stopped one (its
    # heartbeat thread stops with it) as silence past host_timeout.
    threads_before = set(threading.enumerate())
    t0 = time.monotonic()
    with pytest.raises(ShardHostLost) as info:
        run_app(_self_signalling_app, 8, config=mvapich2_like(),
                app_args=(signum,), shards=2, shard_backend="process",
                shard_transport=_FAST)
    elapsed = time.monotonic() - t0
    exc = info.value
    assert exc.reason == reason
    assert exc.retryable is True
    assert exc.shard == 1 and exc.host.startswith("local:")
    assert elapsed < _FAST.host_timeout + 2.0
    if signum == signal.SIGKILL:
        assert elapsed < _FAST.host_timeout  # EOF beats the deadline
    assert [s["lost"] for s in exc.diagnostic.shards] == [False, True]
    assert exc.diagnostic.reason == reason
    assert exc.partial["lost_shard"] == 1
    assert "[LOST]" in exc.diagnostic.render_text()
    # Nothing left behind: the stopped child was killed and reaped.
    assert multiprocessing.active_children() == []
    assert set(threading.enumerate()) <= threads_before


def test_healthy_fork_workers_are_reaped():
    result = run_app(halo_app, 8, config=mvapich2_like(),
                     app_args=(2, 2048.0, 10.0e-6), shards=2,
                     shard_backend="process", shard_transport=_FAST)
    assert multiprocessing.active_children() == []
    assert all(s["host"].startswith("local:") for s in result.shard_stats)
