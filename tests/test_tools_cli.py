"""Tests for the command-line tools (invoked in-process via main(argv))."""

import pytest

from repro.core.xfer_table import XferTable
from repro.tools import nas as nas_cli
from repro.tools import perfmain as perfmain_cli
from repro.tools import report as report_cli


class TestPerfmainCli:
    def test_writes_loadable_table(self, tmp_path, capsys):
        out = tmp_path / "xfer.tsv"
        rc = perfmain_cli.main(["--out", str(out), "--max-size", "1048576"])
        assert rc == 0
        table = XferTable.load(out)
        assert repr(table) == "<XferTable 21 points, 1..1048576 B>"
        text = capsys.readouterr().out
        assert "wrote 21 points" in text and "MB/s" in text

    def test_custom_fabric_parameters(self, tmp_path):
        out = tmp_path / "fast.tsv"
        rc = perfmain_cli.main([
            "--out", str(out), "--latency-us", "2", "--bandwidth-mbs", "1000",
            "--min-size", "64", "--max-size", "65536",
        ])
        assert rc == 0
        table = XferTable.load(out)
        from repro.netsim import NetworkParams
        overhead = NetworkParams().per_message_overhead
        assert table.time_for(64) == pytest.approx(2e-6 + overhead + 64 / 1e9)

    def test_invalid_sizes_rejected(self, tmp_path):
        rc = perfmain_cli.main([
            "--out", str(tmp_path / "x.tsv"), "--min-size", "100",
            "--max-size", "10",
        ])
        assert rc == 2


class TestNasCli:
    def test_runs_and_writes_reports(self, tmp_path, capsys):
        rc = nas_cli.main([
            "--benchmark", "cg", "--klass", "S", "--np", "4", "--niter", "1",
            "--report-dir", str(tmp_path), "--sizes",
        ])
        assert rc == 0
        files = sorted(tmp_path.glob("cg.S.4.rank*.json"))
        assert len(files) == 4
        text = capsys.readouterr().out
        assert "overlap report: rank 0" in text
        assert "by message size" in text
        assert "job wall time" in text

    def test_sp_modified_flag(self, capsys):
        rc = nas_cli.main([
            "--benchmark", "sp", "--klass", "S", "--np", "4", "--niter", "1",
            "--modified",
        ])
        assert rc == 0
        assert "solve_overlap" in capsys.readouterr().out

    def test_mg_nonblocking(self, capsys):
        rc = nas_cli.main([
            "--benchmark", "mg", "--klass", "S", "--np", "4", "--niter", "1",
            "--nonblocking",
        ])
        assert rc == 0
        assert "overlap report" in capsys.readouterr().out

    def test_library_override(self, capsys):
        rc = nas_cli.main([
            "--benchmark", "ft", "--klass", "S", "--np", "2", "--niter", "1",
            "--library", "openmpi",
        ])
        assert rc == 0


class TestReportCli:
    @pytest.fixture
    def report_files(self, tmp_path):
        nas_cli.main([
            "--benchmark", "cg", "--klass", "S", "--np", "2", "--niter", "1",
            "--report-dir", str(tmp_path),
        ])
        return sorted(str(p) for p in tmp_path.glob("*.json"))

    def test_render_single(self, report_files, capsys):
        capsys.readouterr()
        rc = report_cli.main([report_files[0], "--sizes"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "overlap report: rank 0" in text
        assert "size range" in text

    def test_aggregate(self, report_files, capsys):
        capsys.readouterr()
        rc = report_cli.main(report_files + ["--aggregate"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "aggregate over all ranks" in text

    def test_diff_mode(self, report_files, capsys):
        capsys.readouterr()
        rc = report_cli.main(["--diff", report_files[0], report_files[1]])
        assert rc == 0
        assert "<total>" in capsys.readouterr().out

    def test_no_files_prints_usage(self, capsys):
        rc = report_cli.main([])
        assert rc == 2
