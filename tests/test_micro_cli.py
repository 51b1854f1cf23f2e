"""Tests for the micro CLI."""

from repro.tools import micro as micro_cli


class TestMicroCli:
    def test_default_run_prints_both_sides(self, capsys):
        rc = micro_cli.main([
            "--size", "10240", "--computes", "0,20e-6", "--iters", "5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "(sender)" in out and "(receiver)" in out
        assert "max ovlp %" in out

    def test_single_side_with_plot(self, capsys):
        rc = micro_cli.main([
            "--pattern", "isend_recv", "--size", "1048576",
            "--computes", "0,1e-3,2e-3", "--iters", "5",
            "--library", "openmpi", "--leave-pinned",
            "--side", "sender", "--plot",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "(sender)" in out and "(receiver)" not in out
        assert "max overlap (%) vs compute" in out

    def test_rput_library_choice(self, capsys):
        rc = micro_cli.main([
            "--pattern", "isend_recv", "--size", "200000",
            "--computes", "1e-3", "--iters", "5", "--library", "rput",
        ])
        assert rc == 0
        assert "rput" in capsys.readouterr().out

    def test_mvapich2_library_choice(self, capsys):
        rc = micro_cli.main([
            "--size", "10240", "--computes", "0", "--iters", "3",
            "--library", "mvapich2",
        ])
        assert rc == 0
        assert "mvapich2" in capsys.readouterr().out
