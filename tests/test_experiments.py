"""Tests for the figure-level experiment drivers."""

import pytest

from repro.experiments.nas_char import (
    CharPoint,
    characterize,
    characterize_matrix,
    characterize_mg,
)
from repro.experiments.overhead import measure_overhead, overhead_suite
from repro.experiments.sp_tuning import iprobe_placement_sweep, sp_tuning
from repro.nas.base import CpuModel

FAST = CpuModel(flop_rate=50e9)


class TestNasChar:
    def test_characterize_returns_point(self):
        p = characterize("cg", "S", 4, niter=1, cpu=FAST)
        assert isinstance(p, CharPoint)
        assert p.benchmark == "cg"
        assert 0.0 <= p.min_pct <= p.max_pct <= 100.0
        assert p.elapsed > 0
        assert p.report.rank == 0

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="unknown NAS benchmark.*'mg'"):
            characterize("dt", "S", 4)

    def test_matrix_covers_grid(self):
        points = characterize_matrix(
            "ft", ["S", "W"], [2, 4], niter=1, cpu=FAST
        )
        assert [(p.klass, p.nprocs) for p in points] == [
            ("S", 2), ("S", 4), ("W", 2), ("W", 4)
        ]

    def test_mg_variants(self):
        b = characterize_mg("S", 4, blocking=True, cpu=FAST)
        nb = characterize_mg("S", 4, blocking=False, cpu=FAST)
        assert b.variant == "blocking"
        assert nb.variant == "nonblocking"
        assert nb.max_pct > b.max_pct

    def test_lu_planes_passthrough(self):
        p = characterize("lu", "S", 4, niter=1, cpu=FAST, lu_planes=4)
        assert p.report.total.transfer_count > 0


class TestSpTuning:
    @pytest.fixture(scope="class")
    def result(self):
        return sp_tuning("A", 4, niter=1)

    def test_section_overlap_improves(self, result):
        orig = result.section("original")
        mod = result.section("modified")
        assert mod.max_overlap_pct > orig.max_overlap_pct + 20.0
        assert mod.min_overlap_pct >= orig.min_overlap_pct

    def test_full_code_improves_but_less(self, result):
        # Gains over the complete code are limited by copy_faces (Sec. 4.3).
        orig, mod = result.full("original"), result.full("modified")
        assert mod.max_overlap_pct > orig.max_overlap_pct
        section_gain = (
            result.section("modified").max_overlap_pct
            - result.section("original").max_overlap_pct
        )
        full_gain = mod.max_overlap_pct - orig.max_overlap_pct
        assert full_gain < section_gain

    def test_mpi_time_drops(self, result):
        assert result.mpi_time_modified < result.mpi_time_original
        assert result.mpi_time_improvement_pct > 0

    def test_iprobe_sweep_zero_probes_matches_original(self):
        sweep = iprobe_placement_sweep("A", 4, counts=(0, 4), niter=1)
        zero, four = sweep
        # 0 probes: the "modified" run degenerates to the original.
        assert zero.section("modified").max_overlap_pct == pytest.approx(
            zero.section("original").max_overlap_pct, abs=2.0
        )
        assert four.section("modified").max_overlap_pct > 50.0


class TestOverhead:
    def test_overhead_small_and_positive(self):
        p = measure_overhead("cg", "S", 4, niter=2, cpu=None)
        assert p.time_instrumented >= p.time_uninstrumented
        assert 0.0 <= p.overhead_pct < 0.9  # the paper's bound
        assert p.events > 0

    def test_overhead_mg_armci(self):
        p = measure_overhead("mg", "S", 4, niter=1, cpu=None)
        assert p.benchmark == "mg"
        assert 0.0 <= p.overhead_pct < 0.9

    def test_suite_covers_all_benchmarks(self):
        points = overhead_suite(
            cells=(("cg", "S", 4), ("ft", "S", 4)), niter=1, cpu=None
        )
        assert [p.benchmark for p in points] == ["cg", "ft"]
