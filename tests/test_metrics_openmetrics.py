"""OpenMetrics exposition, checked against the parser in ``tests.oracles``."""

import json

import pytest

from repro.metrics import MetricsRegistry, render_openmetrics
from repro.tools import nas as nas_cli
from tests.oracles import parse_openmetrics


def _registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("repro_jobs", "Jobs run", labels={"kind": "lu"}).inc(3)
    reg.gauge("repro_depth", "Queue depth").set(7)
    h = reg.histogram("repro_lat_seconds", lo_exp=-2, hi_exp=0)
    h.observe(0.2)
    h.observe(0.9)
    return reg


def test_render_has_metadata_eof_and_counter_suffix():
    text = render_openmetrics(_registry())
    assert "# TYPE repro_jobs counter" in text
    assert "# HELP repro_jobs Jobs run" in text
    assert 'repro_jobs_total{kind="lu"} 3' in text
    assert "repro_depth 7" in text
    assert text.endswith("# EOF\n")


def test_render_histogram_buckets_are_cumulative_with_inf():
    text = render_openmetrics(_registry())
    buckets = [line for line in text.splitlines()
               if line.startswith("repro_lat_seconds_bucket")]
    # bounds: 0.25, 0.5, 1.0, +Inf; observations 0.2 and 0.9
    assert buckets == [
        'repro_lat_seconds_bucket{le="0.25"} 1',
        'repro_lat_seconds_bucket{le="0.5"} 1',
        'repro_lat_seconds_bucket{le="1"} 2',
        'repro_lat_seconds_bucket{le="+Inf"} 2',
    ]
    assert "repro_lat_seconds_count 2" in text
    assert "repro_lat_seconds_sum 1.1" in text


def test_parse_round_trips_values_and_labels():
    reg = _registry()
    parsed = parse_openmetrics(render_openmetrics(reg))
    jobs = parsed["repro_jobs"]
    assert jobs["kind"] == "counter"
    assert jobs["help"] == "Jobs run"
    assert jobs["samples"][("_total", (("kind", "lu"),))] == 3.0
    assert parsed["repro_depth"]["samples"][("", ())] == 7.0
    lat = parsed["repro_lat_seconds"]["samples"]
    assert lat[("_count", ())] == 2.0
    assert lat[("_bucket", (("le", "0.5"),))] == 1.0


def test_parse_rejects_missing_eof_and_undeclared_family():
    with pytest.raises(ValueError, match="EOF"):
        parse_openmetrics("# TYPE x counter\nx_total 1\n")
    with pytest.raises(ValueError, match="no declared family"):
        parse_openmetrics("mystery 1\n# EOF\n")


def test_label_values_escape_round_trip():
    reg = MetricsRegistry()
    tricky = 'a"b\\c\nd'
    reg.counter("repro_x", labels={"k": tricky}).inc()
    parsed = parse_openmetrics(render_openmetrics(reg))
    assert parsed["repro_x"]["samples"][("_total", (("k", tricky),))] == 1.0


def test_write_helpers(tmp_path, capsys):
    """``nas --metrics-dir`` leaves the exposition and the JSON snapshot
    of each cell, and the two files state the same counter values."""
    assert nas_cli.main(["--benchmark", "lu", "--klass", "S", "--np", "2",
                         "--niter", "1", "--no-cache",
                         "--metrics-dir", str(tmp_path)]) == 0
    assert "wrote framework metrics to" in capsys.readouterr().out
    parsed = parse_openmetrics((tmp_path / "lu.S.2.om").read_text())
    snap = json.loads((tmp_path / "lu.S.2.metrics.json").read_text())
    assert snap["format_version"] == 1
    counters = {name: family for name, family in snap["metrics"].items()
                if family["kind"] == "counter"}
    assert counters
    for name, family in counters.items():
        assert parsed[name]["kind"] == "counter"
        for sample in family["samples"]:
            key = ("_total", tuple(sorted(sample["labels"].items())))
            assert parsed[name]["samples"][key] == sample["value"], name
