"""Socket shard backend: bit-identity, loss detection, diagnostics.

Drives :mod:`repro.sim.remote` worker servers in-process (no
subprocesses: the accept loop runs on a background thread, sessions on
their own threads) and checks the coordinator-side contract of
``run_app_sharded(backend="socket")``:

* results are **bit-identical** to the single-process ground truth under
  both synchronization protocols -- the same differential referee the
  fork backend (same session protocol, over a socketpair) passes;
* a worker that dies mid-run (deterministic ``drop-after`` fault) fails
  the run with :class:`ShardHostLost` *immediately* -- reason
  ``connection-lost`` -- never a hang;
* a worker that goes **silent** (deterministic ``stall-after`` fault,
  which holds the send lock so heartbeats stop too) is declared lost
  within ``host_timeout`` -- reason ``heartbeat-timeout``;
* either loss carries a diagnostic snapshot and a partial report, and
  the exception advertises ``retryable = True`` for the service layer;
* a worker that speaks the wrong protocol version is rejected in the
  handshake, and an address nobody listens on fails with a clear
  :class:`ShardError` after bounded connect retries.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.halo import halo_app
from repro.faults.transport import TransportFaultPlan
from repro.mpisim.config import mvapich2_like
from repro.netsim.differential import assert_sharded_identical
from repro.netsim.transport import (
    PROTOCOL_VERSION,
    ConnectionLost,
    FrameStream,
    HandshakeError,
    TransportOptions,
    client_handshake,
    connect_with_retry,
)
from repro.runtime.launcher import run_app
from repro.sim.remote import WorkerServer
from repro.sim.parallel import ShardError, ShardHostLost

_APP_ARGS = (3, 2048.0, 15.0e-6)

#: Fast loss detection for tests: frequent heartbeats, short silence
#: budget, few connect attempts.
_FAST = TransportOptions(
    connect_attempts=3, connect_base_delay=0.02,
    heartbeat_interval=0.1, host_timeout=2.0,
)


def _run_socket(hosts, transport=_FAST, ranks=8, shards=2):
    return run_app(
        halo_app, ranks, config=mvapich2_like(), app_args=_APP_ARGS,
        shards=shards, shard_backend="socket",
        shard_hosts=hosts, shard_transport=transport,
    )


# ---------------------------------------------------------------- bit identity

def test_socket_backend_bit_identical():
    with WorkerServer() as w0, WorkerServer() as w1:
        assert_sharded_identical(
            halo_app, 8, 2, backend="socket",
            config=mvapich2_like(), app_args=_APP_ARGS,
            hosts=[w0.address, w1.address], transport=_FAST,
        )


def test_socket_transport_stats_surface():
    with WorkerServer() as worker:
        result = _run_socket([worker.address])
    stats = result.sync_stats["transport"]
    assert stats["hosts"] == [worker.address] * 2
    assert stats["frames_out"] > 0 and stats["frames_in"] > 0
    assert stats["bytes_out"] > 0 and stats["bytes_in"] > 0
    # Framing + pickle + heartbeats cost something over raw payload.
    assert stats["bytes_out"] + stats["bytes_in"] > stats["payload_bytes"]
    for shard in result.shard_stats:
        assert shard["host"] == worker.address
        assert shard["frames_out"] > 0


# ------------------------------------------------------------------ host loss

def test_dropped_worker_is_lost_immediately():
    plan = TransportFaultPlan(drop_after_frames=5)
    with WorkerServer(fault_plan=plan) as bad, WorkerServer() as good:
        t0 = time.monotonic()
        with pytest.raises(ShardHostLost) as info:
            _run_socket([bad.address, good.address])
        elapsed = time.monotonic() - t0
    exc = info.value
    # EOF beats the heartbeat deadline: detection is immediate, well
    # under the host_timeout silence budget.
    assert elapsed < _FAST.host_timeout
    assert exc.reason == "connection-lost"
    assert exc.retryable is True
    assert exc.shard == 0 and exc.host == bad.address


def test_stalled_worker_is_lost_within_host_timeout():
    # The stall holds the worker's send lock, so heartbeats stop too:
    # pure silence, detectable only via the host_timeout deadline.
    plan = TransportFaultPlan(stall_after_frames=5, stall_s=4.0)
    with WorkerServer(fault_plan=plan) as bad, WorkerServer() as good:
        t0 = time.monotonic()
        with pytest.raises(ShardHostLost) as info:
            _run_socket([bad.address, good.address])
        elapsed = time.monotonic() - t0
    exc = info.value
    assert exc.reason == "heartbeat-timeout"
    # Lost no earlier than the silence budget, not much later either.
    assert _FAST.host_timeout * 0.5 <= elapsed <= _FAST.host_timeout + 3.0


def test_host_loss_carries_diagnostic_and_partial():
    plan = TransportFaultPlan(drop_after_frames=5)
    with WorkerServer(fault_plan=plan) as bad, WorkerServer() as good:
        with pytest.raises(ShardHostLost) as info:
            _run_socket([bad.address, good.address])
    exc = info.value
    diag = exc.diagnostic
    assert diag is not None
    assert diag.reason == "connection-lost"
    assert len(diag.shards) == 2
    assert [s["lost"] for s in diag.shards] == [True, False]
    text = diag.render_text()
    assert "shard-loss" in text and "[LOST]" in text
    partial = exc.partial
    assert partial is not None
    assert partial["reason"] == "connection-lost"
    assert partial["lost_shard"] == 0
    assert len(partial["shards"]) == 2


def _slow_first_shard_app(ctx, stall_s):
    """One ring exchange; rank 0's shard burns ``stall_s`` of *wall*
    time first (its heartbeat thread keeps beating meanwhile)."""
    if ctx.rank == 0:
        time.sleep(stall_s)
    left, right = (ctx.rank - 1) % ctx.size, (ctx.rank + 1) % ctx.size
    r = yield from ctx.comm.irecv(left, 5)
    s = yield from ctx.comm.isend(right, 5, 1024.0)
    yield from ctx.comm.waitall([r, s])
    return ctx.rank


@pytest.mark.parametrize("backend", ("process", "socket"))
def test_waiting_on_a_slow_shard_does_not_condemn_the_others(backend):
    # A barrier round collects shard 0 first.  While that takes longer than
    # host_timeout, shard 1's heartbeats queue up unread -- they must be
    # drained before its silence is judged, or a healthy worker is
    # declared lost.
    tight = TransportOptions(heartbeat_interval=0.05, host_timeout=0.5)
    with WorkerServer() as worker:
        result = run_app(
            _slow_first_shard_app, 4, app_args=(1.2,), shards=2,
            shard_backend=backend,
            shard_hosts=[worker.address] if backend == "socket" else None,
            shard_transport=tight,
        )
    assert result.returns == [0, 1, 2, 3]
    assert result.sync_stats["transport"]["heartbeats"] >= 10


# ------------------------------------------------------- handshake + dialing

def test_worker_rejects_version_mismatch():
    with WorkerServer() as worker:
        sock, _ = connect_with_retry(worker.host, worker.port, _FAST)
        stream = FrameStream(sock)
        try:
            with pytest.raises(HandshakeError) as info:
                client_handshake(stream, {"shard": 0}, timeout=5.0,
                                 version=PROTOCOL_VERSION + 7)
            assert "version" in str(info.value)
        finally:
            stream.close()
        # The server survives a rejected peer: a correct dial still works.
        sock, _ = connect_with_retry(worker.host, worker.port, _FAST)
        stream = FrameStream(sock)
        try:
            meta = client_handshake(stream, {"shard": 0}, timeout=5.0)
            assert meta["protocol"] == PROTOCOL_VERSION
        finally:
            stream.close()


def test_rejected_handshake_closes_the_dialled_socket():
    # The half-built handle never reaches run_app_sharded's cleanup, so
    # its constructor must close the connected stream itself.
    import socket as _socket
    import threading

    srv = _socket.socket(_socket.AF_INET, _socket.SOCK_STREAM)
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    host, port = srv.getsockname()[:2]
    saw_eof = threading.Event()

    def rejecting_worker():
        conn, _addr = srv.accept()
        stream = FrameStream(conn)
        stream.recv(timeout=5.0)  # the hello
        stream.send(("reject", PROTOCOL_VERSION + 1, "not today"))
        try:
            stream.recv(timeout=5.0)
        except ConnectionLost:
            saw_eof.set()
        finally:
            stream.close()

    thread = threading.Thread(target=rejecting_worker, daemon=True)
    thread.start()
    try:
        with pytest.raises(ShardError, match="rejected") as info:
            _run_socket([f"{host}:{port}"])
        assert saw_eof.wait(5.0), "coordinator leaked the rejected socket"
        assert isinstance(info.value.__cause__, HandshakeError)
    finally:
        thread.join(timeout=5.0)
        srv.close()


def test_worker_server_prunes_finished_session_threads():
    # A serve-forever worker must not grow one Thread per session served.
    with WorkerServer() as worker:
        for _ in range(12):
            sock, _ = connect_with_retry(worker.host, worker.port, _FAST)
            stream = FrameStream(sock)
            client_handshake(stream, {"shard": 0}, timeout=5.0)
            stream.close()
            deadline = time.monotonic() + 5.0
            while (any(t.is_alive() for t in worker._threads)
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            assert len(worker._threads) == 1
        assert not any(t.is_alive() for t in worker._threads)


def test_unreachable_host_is_shard_error():
    # Bound but never listening: every dial is refused, retries run out.
    import socket as _socket

    srv = _socket.socket(_socket.AF_INET, _socket.SOCK_STREAM)
    srv.bind(("127.0.0.1", 0))
    host, port = srv.getsockname()[:2]
    try:
        with pytest.raises(ShardError) as info:
            _run_socket([f"{host}:{port}"])
        assert "shard 0" in str(info.value)
    finally:
        srv.close()


def test_socket_backend_requires_hosts():
    with pytest.raises(ValueError) as info:
        run_app(
            halo_app, 8, config=mvapich2_like(), app_args=_APP_ARGS,
            shards=2, shard_backend="socket",
        )
    assert "hosts" in str(info.value)
