"""End-to-end point-to-point tests through the launcher.

These exercise data integrity, MPI semantics (ordering, wildcards,
blocking behaviour), and protocol selection across eager and all three
rendezvous modes.
"""

import numpy as np
import pytest

from repro.mpisim import MpiConfig
from repro.mpisim.status import ANY_SOURCE, ANY_TAG, MpiError
from repro.runtime import run_app

EAGER = MpiConfig(name="t-eager", eager_limit=1 << 16)
PIPELINED = MpiConfig(name="t-pipe", eager_limit=1024, rndv_mode="pipelined",
                      frag_size=4096)
RGET = MpiConfig(name="t-rget", eager_limit=1024, rndv_mode="rget")
RPUT = MpiConfig(name="t-rput", eager_limit=1024, rndv_mode="rput")
ALL_CONFIGS = [EAGER, PIPELINED, RGET, RPUT]


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
def test_payload_roundtrip(config):
    payload = np.arange(4096, dtype=np.float64)

    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(1, 7, payload.nbytes, data=payload)
        else:
            status, data = yield from ctx.comm.recv(0, 7)
            assert status.source == 0
            assert status.tag == 7
            assert status.nbytes == payload.nbytes
            np.testing.assert_array_equal(data, payload)

    run_app(app, 2, config=config)


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
def test_isend_irecv_wait(config):
    def app(ctx):
        if ctx.rank == 0:
            req = yield from ctx.comm.isend(1, 3, 50_000, data=b"x")
            yield from ctx.comm.wait(req)
        else:
            req = yield from ctx.comm.irecv(0, 3)
            status = yield from ctx.comm.wait(req)
            assert status.nbytes == 50_000
            assert req.data == b"x"

    run_app(app, 2, config=config)


def test_send_buffer_snapshot_isolated_from_later_writes():
    # Eager sends buffer the payload: mutating after send must not corrupt.
    def app(ctx):
        if ctx.rank == 0:
            buf = np.zeros(128)
            buf[:] = 1.0
            req = yield from ctx.comm.isend(1, 1, buf.nbytes, data=buf)
            buf[:] = -99.0  # overwrite after isend returns
            yield from ctx.comm.wait(req)
        else:
            _, data = yield from ctx.comm.recv(0, 1)
            assert float(data[0]) == 1.0

    run_app(app, 2, config=EAGER)


def test_message_ordering_same_pair_same_tag():
    def app(ctx):
        n = 20
        if ctx.rank == 0:
            reqs = []
            for i in range(n):
                reqs.append((yield from ctx.comm.isend(1, 4, 256, data=i)))
            yield from ctx.comm.waitall(reqs)
        else:
            for i in range(n):
                _, data = yield from ctx.comm.recv(0, 4)
                assert data == i  # non-overtaking

    run_app(app, 2, config=EAGER)


def test_wildcard_source_and_tag():
    def app(ctx):
        if ctx.rank == 0:
            got = set()
            for _ in range(2):
                status, data = yield from ctx.comm.recv(ANY_SOURCE, ANY_TAG)
                got.add((status.source, status.tag, data))
            assert got == {(1, 11, "a"), (2, 22, "b")}
        elif ctx.rank == 1:
            yield from ctx.comm.send(0, 11, 64, data="a")
        else:
            yield from ctx.comm.send(0, 22, 64, data="b")

    run_app(app, 3, config=EAGER)


@pytest.mark.parametrize("config", [PIPELINED, RGET, RPUT], ids=lambda c: c.name)
def test_unexpected_rendezvous_late_recv(config):
    # Sender starts long before the receiver posts: RTS must queue.
    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(1, 9, 100_000, data="bulk")
        else:
            yield from ctx.compute(5e-3)  # receiver arrives late
            status, data = yield from ctx.comm.recv(0, 9)
            assert data == "bulk"
            assert status.nbytes == 100_000

    run_app(app, 2, config=config)


def test_unexpected_eager_late_recv():
    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(1, 9, 512, data="tiny")
        else:
            yield from ctx.compute(1e-3)
            _, data = yield from ctx.comm.recv(0, 9)
            assert data == "tiny"

    run_app(app, 2, config=EAGER)


def test_self_send_and_recv():
    def app(ctx):
        req = yield from ctx.comm.isend(ctx.rank, 2, 1000, data="self")
        status, data = yield from ctx.comm.recv(ctx.rank, 2)
        assert data == "self"
        yield from ctx.comm.wait(req)

    run_app(app, 1)


def test_exchange_both_directions_simultaneously():
    def app(ctx):
        other = 1 - ctx.rank
        rreq = yield from ctx.comm.irecv(other, 5)
        sreq = yield from ctx.comm.isend(other, 5, 200_000, data=ctx.rank)
        yield from ctx.comm.waitall([sreq, rreq])
        assert rreq.data == other

    for config in ALL_CONFIGS:
        run_app(app, 2, config=config)


def test_sendrecv_ring_rotation():
    def app(ctx):
        right = (ctx.rank + 1) % ctx.size
        left = (ctx.rank - 1) % ctx.size
        status, data = yield from ctx.comm.sendrecv(
            right, 8, 1024, left, 8, data=ctx.rank
        )
        assert data == left
        assert status.source == left

    run_app(app, 5, config=EAGER)


def test_test_polls_to_completion():
    def app(ctx):
        if ctx.rank == 0:
            req = yield from ctx.comm.isend(1, 1, 128, data=None)
            yield from ctx.comm.wait(req)
        else:
            req = yield from ctx.comm.irecv(0, 1)
            spins = 0
            while True:
                done = yield from ctx.comm.test(req)
                if done:
                    break
                spins += 1
                yield from ctx.compute(1e-6)
                assert spins < 10_000
            assert req.done

    run_app(app, 2, config=EAGER)


def test_probe_blocks_until_message_available():
    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.compute(2e-3)
            yield from ctx.comm.send(1, 6, 4096, data="probed")
        else:
            status = yield from ctx.comm.probe(0, 6)
            assert status.nbytes == 4096
            assert ctx.now >= 2e-3
            _, data = yield from ctx.comm.recv(0, 6)
            assert data == "probed"

    run_app(app, 2, config=EAGER)


def test_iprobe_reports_pending_and_absent():
    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(1, 6, 100, data=None)
        else:
            found = yield from ctx.comm.iprobe(0, 6)
            assert found is None  # nothing can have arrived yet at t=0
            yield from ctx.compute(1e-3)
            found = yield from ctx.comm.iprobe(0, 6)
            assert found is not None
            assert found.nbytes == 100
            yield from ctx.comm.recv(0, 6)

    run_app(app, 2, config=EAGER)


def test_protocol_selection_by_eager_limit():
    config = MpiConfig(name="sel", eager_limit=1000, rndv_mode="rget")

    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(1, 1, 1000, data="eager")  # == limit
            yield from ctx.comm.send(1, 2, 1001, data="rndv")  # over limit
        else:
            _, a = yield from ctx.comm.recv(0, 1)
            _, b = yield from ctx.comm.recv(0, 2)
            assert (a, b) == ("eager", "rndv")

    result = run_app(app, 2, config=config)
    # Receiver: eager is END-only (case 3), rget rendezvous is case 1 or 2.
    recv_cases = result.report(1).total.case_counts
    assert recv_cases[3] == 1
    assert recv_cases[1] + recv_cases[2] == 1


def test_bad_peer_rank_raises():
    def app(ctx):
        yield from ctx.comm.send(5, 1, 10)

    with pytest.raises(MpiError):
        run_app(app, 2)


def test_negative_tag_rejected():
    def app(ctx):
        yield from ctx.comm.send(0 if ctx.rank else 1, -3, 10)

    with pytest.raises(MpiError):
        run_app(app, 2)


def test_caught_library_error_closes_the_call():
    """An application may catch ``MpiError`` and carry on.  The failed
    call must still be *over*: without its ``CALL_EXIT`` the rest of the
    run nests inside it -- no computation time, no per-call statistics,
    split-call transfers resolved as same-call.  The catching run's
    reports equal the clean run's, plus one zero-length ``MPI_Isend``."""

    def app(ctx, with_bad_call):
        comm = ctx.comm
        if ctx.rank == 0:
            if with_bad_call:
                with pytest.raises(MpiError):
                    yield from comm.isend(1, -5, 64.0)
            yield from ctx.compute(1e-3)
            req = yield from comm.isend(1, 0, 200_000.0)
            yield from ctx.compute(1e-3)
            yield from comm.wait(req)
        else:
            yield from comm.recv(0, 0)

    clean = run_app(app, 2, config=RGET, app_args=(False,))
    caught = run_app(app, 2, config=RGET, app_args=(True,))
    assert caught.elapsed == clean.elapsed
    assert caught.report(1).to_dict() == clean.report(1).to_dict()
    got, want = caught.report(0).to_dict(), clean.report(0).to_dict()
    # The failed call: one more enter/exit pair, one more (instant) Isend.
    assert got.pop("event_count") == want.pop("event_count") + 2
    count, seconds = want["call_stats"]["MPI_Isend"]
    assert got["call_stats"].pop("MPI_Isend") == [count + 1, seconds]
    del want["call_stats"]["MPI_Isend"]
    assert got == want
    # What the bug used to turn it into: everything inside one call.
    assert caught.report(0).total.computation_time == pytest.approx(2e-3)
    assert caught.report(0).total.case_counts[2] == 1


def test_deadlock_detected():
    def app(ctx):
        # Everyone receives, nobody sends.
        yield from ctx.comm.recv(ANY_SOURCE, ANY_TAG)

    with pytest.raises(RuntimeError, match="deadlock"):
        run_app(app, 2)


def test_run_result_contents():
    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(1, 1, 2048, data=None)
        else:
            yield from ctx.comm.recv(0, 1)
        return ctx.rank * 10

    result = run_app(app, 2, config=EAGER, label="smoke")
    assert result.returns == [0, 10]
    assert result.elapsed > 0
    assert result.elapsed == max(result.rank_finish_times)
    assert result.report(0).label == "smoke"
    assert result.report(1).rank == 1
    assert result.fabric.total_bytes_on_wire() > 2048


def test_uninstrumented_run_has_no_reports():
    config = MpiConfig(name="noinst", instrument=False)

    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(1, 1, 100, data=None)
        else:
            yield from ctx.comm.recv(0, 1)

    result = run_app(app, 2, config=config)
    assert result.reports == [None, None]
    with pytest.raises(ValueError):
        result.report(0)
