"""Tests for the repro.metrics registry primitives."""

import json
import math

import pytest

from repro.metrics import MetricsError, MetricsRegistry
from repro.metrics.registry import Counter, Gauge, Histogram


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------
def test_counter_accumulates_and_rejects_negative():
    c = Counter()
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(MetricsError):
        c.inc(-1)


def test_gauge_tracks_high_water():
    g = Gauge()
    g.set(3.0)
    g.set(1.0)
    assert g.value == 1.0
    assert g.high_water == 3.0
    g.inc(9.0)
    assert g.value == 10.0
    assert g.high_water == 10.0
    g.dec(4.0)
    assert g.value == 6.0
    assert g.high_water == 10.0


def test_histogram_log2_bucketing_is_exact():
    h = Histogram(lo_exp=0, hi_exp=3)  # bounds 1, 2, 4, 8, +Inf
    assert h.bounds == [1.0, 2.0, 4.0, 8.0]
    h.observe(0.5)   # below range -> first bucket
    h.observe(1.0)   # exactly on bound 1
    h.observe(1.5)   # (1, 2]
    h.observe(8.0)   # exactly on bound 8
    h.observe(100.0)  # above range -> +Inf
    h.observe(0.0)   # nonpositive -> first bucket
    assert h.counts == [3, 1, 0, 1, 1]
    assert h.count == 6
    assert h.sum == pytest.approx(111.0)


def test_histogram_power_of_two_lands_on_its_own_bound():
    h = Histogram(lo_exp=-4, hi_exp=4)
    for k in range(-4, 5):
        h.observe(math.ldexp(1.0, k))
    # Every power of two must land exactly on its bound, not the next one.
    assert h.counts[: 9] == [1] * 9
    assert h.counts[9:] == [0] * (len(h.counts) - 9)


def test_histogram_bad_range_rejected():
    with pytest.raises(MetricsError):
        Histogram(lo_exp=2, hi_exp=1)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
def test_registry_get_or_create_shares_stored_metrics():
    reg = MetricsRegistry()
    a = reg.counter("repro_x", "help")
    b = reg.counter("repro_x")
    assert a is b
    a.inc()
    assert b.value == 1.0


def test_registry_distinguishes_label_sets():
    reg = MetricsRegistry()
    a = reg.counter("repro_x", labels={"rank": "0"})
    b = reg.counter("repro_x", labels={"rank": "1"})
    assert a is not b
    a.inc(2)
    snap = reg.snapshot()
    samples = snap["metrics"]["repro_x"]["samples"]
    by_rank = {s["labels"]["rank"]: s["value"] for s in samples}
    assert by_rank == {"0": 2.0, "1": 0.0}


def test_registry_rejects_kind_conflicts_and_bad_names():
    reg = MetricsRegistry()
    reg.counter("repro_x")
    with pytest.raises(MetricsError):
        reg.gauge("repro_x")
    with pytest.raises(MetricsError):
        reg.counter("0bad")
    with pytest.raises(MetricsError):
        reg.counter("repro_y", labels={"0bad": "v"})


def test_sampled_metrics_read_live_state():
    reg = MetricsRegistry()
    state = {"n": 0}
    reg.sampled_counter("repro_live", lambda: state["n"])
    state["n"] = 7
    (family,) = [f for f in reg.collect() if f.name == "repro_live"]
    assert family.samples[0].value == 7.0


def test_sampled_registration_is_last_writer_wins():
    reg = MetricsRegistry()
    reg.sampled_gauge("repro_g", lambda: 1.0)
    reg.sampled_gauge("repro_g", lambda: 2.0)
    (family,) = reg.collect()
    assert family.samples[0].value == 2.0


def test_snapshot_carries_gauge_high_water_and_buckets():
    reg = MetricsRegistry()
    g = reg.gauge("repro_g")
    g.set(5.0)
    g.set(2.0)
    h = reg.histogram("repro_h", lo_exp=0, hi_exp=1)
    h.observe(1.5)
    snap = reg.snapshot()
    gs = snap["metrics"]["repro_g"]["samples"][0]
    assert gs["value"] == 2.0 and gs["high_water"] == 5.0
    hs = snap["metrics"]["repro_h"]["samples"][0]
    assert hs["buckets"] == [0, 1, 0]
    assert hs["bounds"] == [1.0, 2.0]
    assert hs["count"] == 1
    assert snap["format_version"] == 1
    assert json.loads(json.dumps(snap)) == snap  # what nas --metrics-dir writes
