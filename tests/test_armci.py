"""Tests for the simulated ARMCI one-sided library."""

import numpy as np
import pytest

from repro.armci import ArmciConfig, run_armci_app
from repro.armci.api import ArmciError

CFG = ArmciConfig(name="t-armci")


class TestPutGet:
    def test_blocking_put_places_data(self):
        def app(ctx):
            ctx.malloc("win", 64)
            yield from ctx.armci.barrier()
            if ctx.rank == 0:
                data = np.arange(8, dtype=np.float64)
                yield from ctx.armci.put(1, "win", data, offset=4)
            yield from ctx.armci.barrier()
            if ctx.rank == 1:
                win = ctx.armci.region_of(1, "win").array
                np.testing.assert_array_equal(win[4:12], np.arange(8))
                assert win[0] == 0.0

        run_armci_app(app, 2, config=CFG)

    def test_blocking_get_returns_remote_data(self):
        def app(ctx):
            region = ctx.malloc("win", 16)
            region.array[:] = ctx.rank * 100 + np.arange(16)
            yield from ctx.armci.barrier()
            if ctx.rank == 0:
                data = yield from ctx.armci.get(1, "win", offset=2, count=4)
                np.testing.assert_array_equal(data, 100 + np.arange(2, 6))
            yield from ctx.armci.barrier()

        run_armci_app(app, 2, config=CFG)

    def test_accumulate_adds_elementwise(self):
        def app(ctx):
            region = ctx.malloc("win", 8)
            region.array[:] = 1.0
            yield from ctx.armci.barrier()
            if ctx.rank != 0:
                contrib = np.full(8, float(ctx.rank))
                yield from ctx.armci.acc(0, "win", contrib)
            yield from ctx.armci.barrier()
            if ctx.rank == 0:
                expect = 1.0 + sum(range(1, ctx.size))
                np.testing.assert_allclose(region.array, expect)

        run_armci_app(app, 4, config=CFG)

    def test_nbput_completes_on_wait(self):
        def app(ctx):
            ctx.malloc("win", 32)
            yield from ctx.armci.barrier()
            if ctx.rank == 0:
                h = yield from ctx.armci.nbput(1, "win", np.full(32, 7.0))
                assert not h.done
                yield from ctx.compute(1e-3)
                yield from ctx.armci.wait(h)
                assert h.done
            yield from ctx.armci.barrier()
            if ctx.rank == 1:
                np.testing.assert_allclose(
                    ctx.armci.region_of(1, "win").array, 7.0
                )

        run_armci_app(app, 2, config=CFG)

    def test_nbget_data_available_after_wait(self):
        def app(ctx):
            region = ctx.malloc("win", 8)
            region.array[:] = ctx.rank
            yield from ctx.armci.barrier()
            if ctx.rank == 0:
                h = yield from ctx.armci.nbget(1, "win", count=8)
                data = yield from ctx.armci.wait(h)
                np.testing.assert_allclose(data, 1.0)
                assert h.data is data
            yield from ctx.armci.barrier()

        run_armci_app(app, 2, config=CFG)

    def test_size_only_transfers(self):
        def app(ctx):
            ctx.malloc("win", 4)
            yield from ctx.armci.barrier()
            if ctx.rank == 0:
                h1 = yield from ctx.armci.nbput(1, "win", nbytes=100_000)
                h2 = yield from ctx.armci.nbget(1, "win", nbytes=50_000)
                yield from ctx.armci.wait_all([h1, h2])
                assert h2.data is None
            yield from ctx.armci.barrier()

        run_armci_app(app, 2, config=CFG)

    def test_fence_completes_outstanding_ops(self):
        def app(ctx):
            ctx.malloc("win", 16)
            yield from ctx.armci.barrier()
            if ctx.rank == 0:
                handles = []
                for i in range(4):
                    h = yield from ctx.armci.nbput(
                        1, "win", np.full(4, float(i)), offset=4 * i
                    )
                    handles.append(h)
                yield from ctx.armci.fence(1)
                assert all(h.done for h in handles)
                assert ctx.armci.outstanding == []
            yield from ctx.armci.barrier()

        run_armci_app(app, 2, config=CFG)


class TestErrors:
    def test_rma_to_self_rejected(self):
        def app(ctx):
            ctx.malloc("win", 4)
            yield from ctx.armci.put(ctx.rank, "win", np.zeros(4))

        with pytest.raises(ArmciError):
            run_armci_app(app, 2, config=CFG)

    def test_unknown_region_rejected(self):
        def app(ctx):
            yield from ctx.armci.get(1 - ctx.rank, "nope", count=1)

        with pytest.raises(ArmciError):
            run_armci_app(app, 2, config=CFG)

    def test_duplicate_region_rejected(self):
        def app(ctx):
            ctx.malloc("win", 4)
            ctx.malloc("win", 4)
            yield from ctx.armci.barrier()

        with pytest.raises(ArmciError):
            run_armci_app(app, 2, config=CFG)

    def test_put_needs_data_or_size(self):
        def app(ctx):
            ctx.malloc("win", 4)
            yield from ctx.armci.put(1 - ctx.rank, "win")

        with pytest.raises(ArmciError):
            run_armci_app(app, 2, config=CFG)


    def test_a_caught_error_closes_its_call(self):
        """An application may catch a library error and carry on: the
        failed call is over, so what the rank does next is its own time."""

        def app(ctx):
            ctx.malloc("win", 4)
            if ctx.rank == 0:
                with pytest.raises(ArmciError):
                    yield from ctx.armci.put(0, "win", np.zeros(4))
                yield from ctx.compute(1e-3)
            yield from ctx.armci.barrier()

        total = run_armci_app(app, 2, config=CFG).report(0).total
        assert total.computation_time >= 1e-3
        assert total.communication_call_time < 1e-4


class TestLazyRegions:
    """A ``malloc``'d region builds ``np.zeros(shape, dtype)`` at its first
    data access; size-only RMA never makes it."""

    @pytest.mark.parametrize("blocking,strided", [
        (False, None), (True, None), (False, "auto")])
    def test_a_whole_mg_run_allocates_no_region(self, blocking, strided):
        from repro.nas.mg import mg_app

        directories = []

        def app(ctx):
            directories.append(ctx.armci.directory)
            return (yield from mg_app(ctx, "S", 1, None, blocking, 2, strided))

        run_armci_app(app, 4, config=CFG)
        regions = directories[0].values()
        assert len(regions) == 4
        assert all(region._array is None for region in regions)

    def test_a_data_put_builds_the_zeroed_array_of_the_asked_shape(self):
        def app(ctx):
            region = ctx.malloc("win", (2, 3), dtype="int32")
            yield from ctx.armci.barrier()
            if ctx.rank == 0:
                data = np.array([7, 8], dtype=np.int32)
                h = yield from ctx.armci.nbput(1, "win", data, offset=2)
                yield from ctx.armci.wait(h)
            yield from ctx.armci.barrier()
            if ctx.rank == 0:
                assert region._array is None  # nobody touched rank 0's
            else:
                assert region.array.shape == (2, 3)
                assert region.array.dtype == np.int32
                np.testing.assert_array_equal(
                    region.array.reshape(-1), [0, 0, 7, 8, 0, 0])

        run_armci_app(app, 2, config=CFG)

    def test_a_counted_get_sizes_by_the_lazy_arrays_itemsize(self):
        def app(ctx):
            ctx.malloc("win", 16, dtype="float32")
            yield from ctx.armci.barrier()
            if ctx.rank == 0:
                h = yield from ctx.armci.nbget(1, "win", offset=4, count=3)
                assert h.nbytes == 12.0
                data = yield from ctx.armci.wait(h)
                assert data.dtype == np.float32
                np.testing.assert_array_equal(data, np.zeros(3))
            yield from ctx.armci.barrier()

        run_armci_app(app, 2, config=CFG)

    @pytest.mark.parametrize("shape", [-1, (4, -2), 2.5, (3, "x")])
    def test_a_bad_shape_raises_at_malloc(self, shape):
        def app(ctx):
            ctx.malloc("win", shape)
            yield from ctx.armci.barrier()

        with pytest.raises(ValueError, match="shape"):
            run_armci_app(app, 2, config=CFG)

    def test_a_bad_dtype_raises_at_the_first_data_access(self):
        def app(ctx, with_data):
            ctx.malloc("win", 4, dtype="no-such-dtype")
            yield from ctx.armci.barrier()
            if ctx.rank == 0:
                yield from ctx.armci.put(1, "win", nbytes=32)
                if with_data:
                    yield from ctx.armci.put(1, "win", np.ones(4))
            yield from ctx.armci.barrier()

        run_armci_app(app, 2, config=CFG, app_args=(False,))
        with pytest.raises(TypeError):
            run_armci_app(app, 2, config=CFG, app_args=(True,))

    def test_a_registered_array_is_the_regions_array(self):
        def app(ctx):
            array = np.arange(4.0)
            assert ctx.armci.register_region("mine", array).array is array
            yield from ctx.armci.barrier()

        run_armci_app(app, 2, config=CFG)


class TestMessageLayer:
    @pytest.mark.parametrize("nprocs", [2, 3, 4, 5, 8])
    def test_barrier_synchronizes(self, nprocs):
        def app(ctx):
            yield from ctx.compute(ctx.rank * 1e-3)
            yield from ctx.armci.barrier()
            assert ctx.now >= (ctx.size - 1) * 1e-3

        run_armci_app(app, nprocs, config=CFG)

    @pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 5, 7, 8])
    def test_msg_allreduce_sum(self, nprocs):
        def app(ctx):
            total = yield from ctx.armci.msg_allreduce(2 ** ctx.rank)
            assert total == 2**nprocs - 1
            yield from ctx.armci.barrier()

        run_armci_app(app, nprocs, config=CFG)

    def test_msg_allreduce_max(self):
        def app(ctx):
            got = yield from ctx.armci.msg_allreduce(ctx.rank * 3 % 7, op=max)
            assert got == max(r * 3 % 7 for r in range(ctx.size))
            yield from ctx.armci.barrier()

        run_armci_app(app, 6, config=CFG)


class TestOverlapSemantics:
    """The Fig.-19 mechanism: non-blocking ARMCI overlaps, blocking doesn't."""

    def test_blocking_put_is_case1_zero_overlap(self):
        def app(ctx):
            ctx.malloc("win", 1)
            yield from ctx.armci.barrier()
            if ctx.rank == 0:
                for _ in range(10):
                    yield from ctx.armci.put(1, "win", nbytes=500_000)
                    yield from ctx.compute(1e-3)
            yield from ctx.armci.barrier()

        result = run_armci_app(app, 2, config=CFG)
        rep = result.report(0)
        assert rep.total.case_counts[1] == 10
        assert rep.total.max_overlap_pct == 0.0

    def test_nonblocking_put_overlaps_nearly_fully(self):
        def app(ctx):
            ctx.malloc("win", 1)
            yield from ctx.armci.barrier()
            if ctx.rank == 0:
                for _ in range(10):
                    h = yield from ctx.armci.nbput(1, "win", nbytes=500_000)
                    yield from ctx.compute(1e-3)  # > transfer time
                    yield from ctx.armci.wait(h)
            yield from ctx.armci.barrier()

        result = run_armci_app(app, 2, config=CFG)
        rep = result.report(0)
        assert rep.total.max_overlap_pct > 95.0
        assert rep.total.min_overlap_pct > 90.0

    def test_uninstrumented_run(self):
        def app(ctx):
            yield from ctx.armci.barrier()

        result = run_armci_app(
            app, 2, config=ArmciConfig(name="ni", instrument=False)
        )
        assert result.reports == [None, None]
        with pytest.raises(ValueError):
            result.report(0)

    def test_run_result_and_deadlock(self):
        def good(ctx):
            yield from ctx.armci.barrier()
            return ctx.rank

        result = run_armci_app(good, 3, config=CFG, label="ok")
        assert result.returns == [0, 1, 2]
        assert result.report(2).label == "ok"

        def bad(ctx):
            if ctx.rank == 0:
                yield from ctx.armci.barrier()

        with pytest.raises(RuntimeError, match="deadlock"):
            run_armci_app(bad, 2, config=CFG)
