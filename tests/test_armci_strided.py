"""Tests for strided ARMCI transfers (PutS/GetS): data placement,
strategy selection, timing trade-offs, and instrumentation accounting."""

import numpy as np
import pytest

from repro.armci import ArmciConfig, StridedSpec, run_armci_app
from repro.armci.strided import AUTO, DIRECT, PACKED, PACK_THRESHOLD, choose_strategy

CFG = ArmciConfig(name="t-strided")


def spec_for(dtype_size=8, seg_elems=4, stride_elems=16, count=3, start_elems=0):
    return StridedSpec(
        offset=start_elems * dtype_size,
        seg_nbytes=seg_elems * dtype_size,
        stride=stride_elems * dtype_size,
        count=count,
    )


class TestStrategySelection:
    def test_auto_packs_small_segments(self):
        small = StridedSpec(0, PACK_THRESHOLD - 1, 1 << 20, 8)
        large = StridedSpec(0, PACK_THRESHOLD, 1 << 20, 8)
        assert choose_strategy(small, AUTO) == PACKED
        assert choose_strategy(large, AUTO) == DIRECT

    def test_explicit_strategies_pass_through(self):
        spec = StridedSpec(0, 100, 1000, 2)
        assert choose_strategy(spec, PACKED) == PACKED
        assert choose_strategy(spec, DIRECT) == DIRECT

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            choose_strategy(StridedSpec(0, 1, 1, 1), "zigzag")

    def test_total_nbytes(self):
        assert StridedSpec(0, 96.0, 512, 5).total_nbytes == 480.0


class TestStridedDataPath:
    @pytest.mark.parametrize("strategy", [PACKED, DIRECT])
    def test_put_places_segments_at_strides(self, strategy):
        spec = spec_for(seg_elems=4, stride_elems=10, count=3, start_elems=2)

        def app(ctx):
            ctx.malloc("win", 64)
            yield from ctx.armci.barrier()
            if ctx.rank == 0:
                data = np.arange(12, dtype=np.float64)  # 3 segments of 4
                yield from ctx.armci.put_strided(1, "win", spec, data,
                                                 strategy=strategy)
            yield from ctx.armci.barrier()
            if ctx.rank == 1:
                win = ctx.armci.region_of(1, "win").array
                for seg in range(3):
                    lo = 2 + seg * 10
                    np.testing.assert_array_equal(
                        win[lo : lo + 4], np.arange(seg * 4, seg * 4 + 4)
                    )
                # Gaps untouched.
                assert win[0] == 0.0 and win[6] == 0.0

        run_armci_app(app, 2, config=CFG)

    @pytest.mark.parametrize("strategy", [PACKED, DIRECT])
    def test_get_gathers_segments(self, strategy):
        spec = spec_for(seg_elems=2, stride_elems=8, count=4)

        def app(ctx):
            region = ctx.malloc("win", 32)
            region.array[:] = np.arange(32) + 100 * ctx.rank
            yield from ctx.armci.barrier()
            if ctx.rank == 0:
                data = yield from ctx.armci.get_strided(
                    1, "win", spec, want_data=True, strategy=strategy
                )
                expect = np.concatenate(
                    [100 + np.arange(seg * 8, seg * 8 + 2) for seg in range(4)]
                )
                np.testing.assert_array_equal(data, expect)
            yield from ctx.armci.barrier()

        run_armci_app(app, 2, config=CFG)

    @pytest.mark.parametrize("strategy", [PACKED, DIRECT])
    def test_round_trip_through_a_lazy_int_region(self, strategy):
        spec = spec_for(seg_elems=3, stride_elems=5, count=2, start_elems=1)

        def app(ctx):
            ctx.malloc("win", (2, 8), dtype="int64")
            yield from ctx.armci.barrier()
            if ctx.rank == 0:
                yield from ctx.armci.put_strided(
                    1, "win", spec, np.arange(1, 7), strategy=strategy)
                data = yield from ctx.armci.get_strided(
                    1, "win", spec, want_data=True, strategy=strategy)
                assert data.dtype == np.int64
                np.testing.assert_array_equal(data, np.arange(1, 7))
            yield from ctx.armci.barrier()
            if ctx.rank == 1:
                win = ctx.armci.region_of(1, "win").array
                assert win.shape == (2, 8)
                np.testing.assert_array_equal(
                    win.reshape(-1), [0, 1, 2, 3, 0, 0, 4, 5, 6] + [0] * 7)

        run_armci_app(app, 2, config=CFG)

    def test_nonblocking_strided_put_completes_on_wait(self):
        spec = spec_for(count=2)

        def app(ctx):
            ctx.malloc("win", 64)
            yield from ctx.armci.barrier()
            if ctx.rank == 0:
                h = yield from ctx.armci.nbput_strided(
                    1, "win", spec, np.ones(8)
                )
                assert not h.done
                yield from ctx.armci.wait(h)
                assert h.done
            yield from ctx.armci.barrier()

        run_armci_app(app, 2, config=CFG)

    def test_size_only_strided(self):
        spec = StridedSpec(0, 4096.0, 8192, 16)

        def app(ctx):
            ctx.malloc("win", 4)
            yield from ctx.armci.barrier()
            if ctx.rank == 0:
                h = yield from ctx.armci.nbput_strided(1, "win", spec)
                yield from ctx.armci.wait(h)
                g = yield from ctx.armci.get_strided(1, "win", spec)
                assert g is None
            yield from ctx.armci.barrier()

        run_armci_app(app, 2, config=CFG)


class TestStridedTiming:
    def _elapsed(self, strategy, seg_nbytes, count):
        spec = StridedSpec(0, seg_nbytes, int(seg_nbytes * 2), count)

        def app(ctx):
            ctx.malloc("win", 4)
            yield from ctx.armci.barrier()
            if ctx.rank == 0:
                yield from ctx.armci.put_strided(1, "win", spec,
                                                 strategy=strategy)
            yield from ctx.armci.barrier()

        return run_armci_app(app, 2, config=CFG).elapsed

    def test_packing_wins_for_many_small_segments(self):
        # 64 segments of 256 B: 64 latencies vs one copy + one latency.
        packed = self._elapsed(PACKED, 256.0, 64)
        direct = self._elapsed(DIRECT, 256.0, 64)
        assert packed < direct

    def test_direct_wins_for_few_large_segments(self):
        # 2 segments of 1 MiB: the pack memcpy dominates.
        packed = self._elapsed(PACKED, float(1 << 20), 2)
        direct = self._elapsed(DIRECT, float(1 << 20), 2)
        assert direct < packed


class TestStridedInstrumentation:
    def test_counts_one_logical_transfer_of_total_size(self):
        spec = StridedSpec(0, 1024.0, 2048, 8)

        def app(ctx):
            ctx.malloc("win", 4)
            yield from ctx.armci.barrier()
            if ctx.rank == 0:
                h = yield from ctx.armci.nbput_strided(
                    1, "win", spec, strategy=DIRECT
                )
                yield from ctx.compute(1e-3)
                yield from ctx.armci.wait(h)
            yield from ctx.armci.barrier()

        result = run_armci_app(app, 2, config=CFG)
        m = result.report(0).total
        assert m.transfer_count == 1
        # The transfer is binned at the total payload size (8 KiB).
        assert m.bins.bins[m.bins.index_for(8192)].count == 1

    def test_nonblocking_strided_overlaps(self):
        spec = StridedSpec(0, 65536.0, 131072, 8)  # 512 KiB total

        def app(ctx):
            ctx.malloc("win", 4)
            yield from ctx.armci.barrier()
            if ctx.rank == 0:
                h = yield from ctx.armci.nbput_strided(1, "win", spec)
                yield from ctx.compute(2e-3)
                yield from ctx.armci.wait(h)
            yield from ctx.armci.barrier()

        result = run_armci_app(app, 2, config=CFG)
        assert result.report(0).total.max_overlap_pct > 90.0
