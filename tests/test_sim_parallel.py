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
import types

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.experiments.halo import halo_app, halo_edges
from repro.mpisim.config import MpiConfig, mvapich2_like
from repro.mpisim.packets import EagerPacket
from repro.netsim import channel as ch
from repro.netsim.differential import assert_sharded_identical, compare_runs
from repro.netsim.params import NetworkParams
from repro.netsim.transport import TransportOptions
from repro.netsim.wire import pack_frame, unpack_frame
from repro.runtime import run_app
from repro.sim.parallel import (
    ShardHostLost,
    _Coordinator,
    partition_ranks,
    run_app_sharded,
)
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


def test_partition_topology_ring_stays_contiguous():
    # On a ring the heaviest-neighbor traversal is rank order, so the
    # topology strategy reproduces the contiguous cut.
    parts = partition_ranks(8, 2, strategy="topology", edges=halo_edges(8))
    assert parts == [[0, 1, 2, 3], [4, 5, 6, 7]]


def test_partition_topology_groups_heavy_pairs():
    # Pairs (0,3) and (1,2) talk heavily; a contiguous cut of 4 ranks
    # into 2 shards would split both pairs, the topology cut splits none.
    edges = [(0, 3, 100.0), (1, 2, 100.0), (3, 1, 1.0)]
    parts = partition_ranks(4, 2, strategy="topology", edges=edges)
    for a, b, _w in edges[:2]:
        shard_of = {r: i for i, p in enumerate(parts) for r in p}
        assert shard_of[a] == shard_of[b], parts


def test_partition_validation():
    with pytest.raises(ValueError):
        partition_ranks(0, 1)
    with pytest.raises(ValueError):
        partition_ranks(4, 0)
    with pytest.raises(ValueError):
        partition_ranks(4, 2, strategy="hilbert")
    with pytest.raises(ValueError, match="bad edge"):
        partition_ranks(4, 2, strategy="topology", edges=[(0,)])


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


# ------------------------------------------------------------- option surface

def test_unsupported_observers_raise():
    from repro.metrics import MetricsRegistry

    with pytest.raises(ValueError, match="metrics"):
        run_app(_pair_app, 4, shards=2, metrics=MetricsRegistry())
    with pytest.raises(ValueError, match="sync"):
        run_app_sharded(_pair_app, 4, 2, sync="optimistic")
    with pytest.raises(ValueError, match="backend"):
        run_app_sharded(_pair_app, 4, 2, backend="thread")


def test_zero_lookahead_rejected():
    params = NetworkParams(latency=0.0, per_message_overhead=0.0)
    with pytest.raises(ValueError, match="lookahead"):
        run_app_sharded(_pair_app, 4, 2, params=params, backend="inline")


# ----------------------------------------------------------------- edge cases

def test_one_rank_per_shard_matches_single():
    assert_sharded_identical(_pair_app, 4, 4, backend="inline")


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


def test_null_sync_matches_single():
    assert_sharded_identical(halo_app, 6, 3, backend="inline", sync="null",
                             app_args=(3, 2048.0, 15.0e-6))


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
    sync=st.sampled_from(("window", "null")),
)
def test_hypothesis_sharded_bit_identical(nprocs, shards, config, seed,
                                          jitter, nbytes, sync):
    """Random small configs: sharded reports must equal single-process."""
    params = NetworkParams(latency_jitter_frac=jitter)
    assert_sharded_identical(
        halo_app, nprocs, shards, config=config,
        params=dataclasses.replace(params),
        app_args=(3, nbytes, 12.0e-6), seed=seed, sync=sync,
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


def test_partition_4096_topology_disconnected_graph():
    # A communication graph touching only a handful of the 4096 ranks:
    # the traversal must still emit every isolated vertex exactly once,
    # keep the +-1 balance, and co-locate the connected heavy pairs.
    edges = [(0, 4095, 10.0), (1, 2048, 5.0), (7, 9, 1.0)]
    parts = partition_ranks(4096, 8, strategy="topology", edges=edges)
    sizes = [len(p) for p in parts]
    assert max(sizes) - min(sizes) <= 1
    assert sorted(r for p in parts for r in p) == list(range(4096))
    shard_of = {r: i for i, p in enumerate(parts) for r in p}
    for a, b, _w in edges:
        assert shard_of[a] == shard_of[b]
    # Shard lists stay ascending (rank creation order inside a shard).
    for p in parts:
        assert p == sorted(p)


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

@pytest.mark.parametrize("sync", ("window", "null"))
def test_high_rank_process_backend_matches_single(sync):
    # 256 ranks through forked workers exercises the batched wire frames
    # end to end (RDMA-write eager mode floods the coordinator with
    # PLACE/ACK obligations as well as hot eager deliveries).
    assert_sharded_identical(
        halo_app, 256, 4, backend="process", sync=sync,
        config=mvapich2_like(), app_args=(3, 2048.0, 15.0e-6),
    )


@pytest.mark.parametrize("sync", ("window", "null"))
def test_backends_three_way_bit_identical(sync):
    # inline hands message lists over by reference (no codec, no
    # transport); process and socket both speak the framed session.  All
    # three must agree bit for bit -- with the single-process ground
    # truth and with each other.
    from repro.sim.remote import WorkerServer

    kwargs = dict(config=mvapich2_like(), app_args=(3, 2048.0, 15.0e-6))
    assert_sharded_identical(halo_app, 16, 4, backend="inline", sync=sync,
                             **kwargs)
    with WorkerServer() as w0, WorkerServer() as w1:
        extra = {"inline": {}, "process": {},
                 "socket": {"shard_hosts": [w0.address, w1.address]}}
        runs = {
            backend: run_app(halo_app, 16, shards=4, shard_sync=sync,
                             shard_backend=backend, **more, **kwargs)
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
    sync=st.sampled_from(("window", "null")),
    config=st.sampled_from((_CONFIGS[0], mvapich2_like())),
)
def test_hypothesis_high_rank_bit_identical(seed, sync, config):
    """256-rank sharded runs must equal single-process, any seed/sync."""
    assert_sharded_identical(
        halo_app, 256, 4, config=config, seed=seed, sync=sync,
        backend="inline", app_args=(2, 2048.0, 10.0e-6),
    )


# --------------------------------------------------------- fence oracle

#: Ranks dealt round-robin: every halo neighbour lives on another shard.
_SCATTERED = [[r for r in range(24) if r % 3 == s] for s in range(3)]


def _fence_checked_halo(sync, backend, partition):
    # mvapich2_like sends eager data by RDMA write, so placement-ACK
    # obligations are in flight at many of the compared fence vectors.
    with checking_fences() as checks:
        result = run_app(
            halo_app, 24, shards=3, shard_sync=sync, shard_backend=backend,
            shard_partition=partition, config=mvapich2_like(),
            app_args=(4, 2048.0, 15.0e-6),
        )
    assert checks.with_obligations > 0
    return checks, result.sync_stats


@pytest.mark.parametrize("partition", [None, _SCATTERED],
                         ids=["contiguous", "scattered"])
@pytest.mark.parametrize("sync", ["window", "null"])
def test_fences_equal_the_reference_at_every_call(sync, partition):
    checks, stats = _fence_checked_halo(sync, "inline", partition)
    assert checks.compared >= stats["rounds"] > 0
    assert stats["fence_recomputes"] > 0


def test_fences_equal_the_reference_under_null_pacing():
    # Inline runs pace both protocols with the barrier loop; only forked
    # workers reach the asynchronous coordinator.  Its rounds depend on
    # reply timing, its fences must not.
    checks, stats = _fence_checked_halo("null", "process", None)
    assert checks.compared >= stats["fence_recomputes"] > 0


def test_cached_fence_vector_equals_the_reference():
    # The asynchronous coordinator re-reads the fences after a
    # heartbeat-only wake-up; nothing changed, so the cached vector is
    # served -- and must still be what a rescan of the live state gives.
    idle = types.SimpleNamespace(begin=lambda: 1.0e-3)
    co = _Coordinator([idle, idle], [0, 1], NetworkParams(), 6.0e-6)
    with checking_fences() as checks:
        first = co.fences_now()
        assert co.fences_now() is first
        co.route(ch.ChannelMsg(2.0e-4, 0, ch.PLACE, 0, 0, 1, 0, 4096.0,
                               None, (1.9e-4, 0)))
        moved = co.fences_now()
        assert moved is not first and moved != first
    assert (checks.compared, co.fence_recomputes) == (3, 2)
    assert checks.with_obligations == 1


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
                    "--backend", "inline", "--sync", "null"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "halo 8 ranks" in out and "sync=null" in out


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


@pytest.mark.parametrize("sync", ("window", "null"))
@pytest.mark.parametrize("signum,reason", (
    pytest.param(signal.SIGKILL, "connection-lost", id="sigkill"),
    pytest.param(signal.SIGSTOP, "heartbeat-timeout", id="sigstop"),
))
def test_lost_fork_worker_is_diagnosed_within_deadline(sync, signum, reason):
    # Right answer or a clean, diagnosed failure inside the deadline:
    # a killed fork worker reads as EOF at once, a stopped one (its
    # heartbeat thread stops with it) as silence past host_timeout.
    threads_before = set(threading.enumerate())
    t0 = time.monotonic()
    with pytest.raises(ShardHostLost) as info:
        run_app(_self_signalling_app, 8, config=mvapich2_like(),
                app_args=(signum,), shards=2, shard_backend="process",
                shard_sync=sync, shard_transport=_FAST)
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
