"""Edge-case robustness across layers: zero-byte and huge messages,
empty compute, request misuse, finalize discipline."""

import math

import pytest

from repro.armci.api import ArmciConfig
from repro.mpisim import MpiConfig
from repro.mpisim.config import mvapich2_like, openmpi_like
from repro.mpisim.request import Request
from repro.runtime import run_app


class TestDegenerateSizes:
    @pytest.mark.parametrize("config", [openmpi_like(), mvapich2_like()],
                             ids=lambda c: c.name)
    def test_zero_byte_message(self, config):
        def app(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(1, 1, 0, data="empty")
            else:
                status, data = yield from ctx.comm.recv(0, 1)
                assert status.nbytes == 0
                assert data == "empty"

        result = run_app(app, 2, config=config)
        # Zero-byte transfers contribute zero transfer time but do count.
        assert result.report(1).total.transfer_count == 1
        assert result.report(1).total.data_transfer_time == 0.0

    def test_huge_message_256mb(self):
        def app(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(1, 1, 256 * 1024 * 1024)
            else:
                yield from ctx.comm.recv(0, 1)

        result = run_app(app, 2, config=mvapich2_like())
        # ~0.37 s at 700 MB/s; sane timing, no overflow.
        assert 0.3 < result.elapsed < 1.0

    def test_eager_limit_zero_forces_rendezvous_for_everything(self):
        config = MpiConfig(name="all-rndv", eager_limit=0, rndv_mode="rget")

        def app(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(1, 1, 8, data="x")
            else:
                _, data = yield from ctx.comm.recv(0, 1)
                assert data == "x"

        result = run_app(app, 2, config=config)
        # Receiver initiated a read -> case 1/2, never the eager case 3.
        assert result.report(1).total.case_counts[3] == 0


class TestComputeAndControl:
    def test_zero_compute_is_allowed_and_free(self):
        def app(ctx):
            t0 = ctx.now
            yield from ctx.compute(0.0)
            assert ctx.now == t0
            yield from ctx.comm.barrier()

        run_app(app, 2)

    def test_negative_compute_rejected(self):
        for config in (None, ArmciConfig()):
            def app(ctx):
                yield from ctx.compute(-1.0)

            with pytest.raises(ValueError, match="compute time"):
                run_app(app, 1, config=config)

    @pytest.mark.parametrize("config", [None, ArmciConfig()],
                             ids=["mpi", "armci"])
    @pytest.mark.parametrize("seconds", [math.nan, math.inf, -math.inf])
    def test_non_finite_compute_rejected(self, seconds, config):
        """A time that is not a number or infinite would otherwise run to
        a clean-looking report."""
        def app(ctx):
            yield from ctx.compute(seconds)

        with pytest.raises(ValueError, match="compute time"):
            run_app(app, 1, config=config)

    def test_single_rank_world(self):
        def app(ctx):
            assert ctx.size == 1
            yield from ctx.comm.barrier()
            value = yield from ctx.comm.allreduce(7, 8)
            assert value == 7
            got = yield from ctx.comm.alltoall(8, ["self"])
            assert got == ["self"]
            req = yield from ctx.comm.isend(0, 1, 100, data="me")
            _, data = yield from ctx.comm.recv(0, 1)
            assert data == "me"
            yield from ctx.comm.wait(req)

        result = run_app(app, 1)
        assert result.report(0).total.transfer_count == 0  # all local


class TestRequestDiscipline:
    def test_request_double_complete_rejected(self):
        req = Request("send", 0, 1, 0, 10)
        req.complete()
        with pytest.raises(RuntimeError):
            req.complete()

    def test_bad_request_kind_rejected(self):
        with pytest.raises(ValueError):
            Request("push", 0, 1, 0, 10)

    def test_wait_on_already_done_request_is_cheap(self):
        def app(ctx):
            if ctx.rank == 0:
                req = yield from ctx.comm.isend(1, 1, 64)
                yield from ctx.comm.wait(req)
                t0 = ctx.now
                yield from ctx.comm.wait(req)  # second wait: no hang
                assert ctx.now - t0 < 1e-5
            else:
                yield from ctx.comm.recv(0, 1)

        run_app(app, 2)

    def test_waitall_with_mixed_done_and_pending(self):
        def app(ctx):
            if ctx.rank == 0:
                done = yield from ctx.comm.isend(1, 1, 64)  # eager: done
                pending = yield from ctx.comm.irecv(1, 2)
                yield from ctx.comm.waitall([done, pending])
                assert pending.data == "late"
            else:
                yield from ctx.comm.recv(0, 1)
                yield from ctx.compute(1e-3)
                yield from ctx.comm.send(0, 2, 64, data="late")

        run_app(app, 2)


class TestReportEdges:
    def test_report_with_no_communication(self):
        def app(ctx):
            yield from ctx.compute(1e-3)

        result = run_app(app, 2)
        m = result.report(0).total
        assert m.transfer_count == 0
        assert m.min_overlap_pct == 0.0
        assert m.max_overlap_pct == 0.0
        assert m.computation_time == pytest.approx(1e-3)

    def test_render_text_with_no_transfers(self):
        def app(ctx):
            yield from ctx.compute(1e-6)

        result = run_app(app, 1)
        text = result.report(0).render_text()
        assert "transfers                  0" in text
