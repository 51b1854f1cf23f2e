"""Tests for the one-command paper reproduction tool."""

import pytest

from repro.tools import paper as paper_cli


def test_quick_reproduction_writes_all_figures(tmp_path, capsys):
    out = tmp_path / "RESULTS.md"
    rc = paper_cli.main(["--quick", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    for key in ("fig03", "fig09", "fig12", "fig14_18", "fig19", "fig20"):
        assert f"## {key}" in text
    assert "min ovlp %" in text
    assert "regenerated in" in text


def test_only_filter(tmp_path):
    out = tmp_path / "one.md"
    rc = paper_cli.main(["--quick", "--only", "fig05", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "## fig05" in text
    assert "## fig04" not in text


def test_unknown_figure_key_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        paper_cli.main(["--quick", "--only", "fig99",
                        "--out", str(tmp_path / "x.md")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "unknown figure keys: ['fig99']" in err and "fig05" in err
