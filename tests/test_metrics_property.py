"""Property tests: OpenMetrics round-trip and histogram invariants."""

import math
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import MetricsRegistry, render_openmetrics
from tests.oracles import parse_openmetrics

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

names = st.from_regex(_NAME_RE, fullmatch=True).map(lambda s: "repro_" + s[:24])
# \n round-trips through the \n escape; other line separators are not
# legal in OpenMetrics label values, so keep them out of the strategy.
label_values = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs", "Cc", "Zl", "Zp"),
        blacklist_characters="\x85",
    ),
    max_size=12,
)
label_sets = st.dictionaries(
    st.from_regex(re.compile(r"^[a-z][a-z0-9_]{0,7}$"), fullmatch=True)
    .filter(lambda k: k != "le"),
    label_values,
    max_size=3,
)
finite_floats = st.floats(
    min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
)


@st.composite
def registries(draw):
    reg = MetricsRegistry()
    kinds = draw(st.lists(
        st.sampled_from(["counter", "gauge", "histogram"]),
        min_size=1, max_size=5,
    ))
    for i, kind in enumerate(kinds):
        name = draw(names) + f"_{i}"
        labels = draw(label_sets)
        if kind == "counter":
            reg.counter(name, labels=labels).inc(draw(finite_floats))
        elif kind == "gauge":
            reg.gauge(name, labels=labels).set(
                draw(st.floats(min_value=-1e12, max_value=1e12,
                               allow_nan=False, allow_infinity=False))
            )
        else:
            h = reg.histogram(name, labels=labels, lo_exp=-6, hi_exp=4)
            for value in draw(st.lists(
                st.floats(min_value=1e-9, max_value=1e3,
                          allow_nan=False, allow_infinity=False),
                max_size=8,
            )):
                h.observe(value)
    return reg


@settings(max_examples=60, deadline=None)
@given(registries())
def test_exposition_round_trips_through_parser(reg):
    parsed = parse_openmetrics(render_openmetrics(reg))
    for family in reg.collect():
        assert parsed[family.name]["kind"] == family.kind
        samples = parsed[family.name]["samples"]
        for labels, value in family.samples:
            key_labels = tuple(sorted(labels))
            if family.kind == "histogram":
                assert samples[("_count", key_labels)] == value.count
                assert math.isclose(
                    samples[("_sum", key_labels)], value.sum,
                    rel_tol=1e-12, abs_tol=1e-12,
                )
            else:
                suffix = "_total" if family.kind == "counter" else ""
                assert samples[(suffix, key_labels)] == float(value)


@settings(max_examples=60, deadline=None)
@given(registries())
def test_histogram_buckets_monotone_cumulative(reg):
    parsed = parse_openmetrics(render_openmetrics(reg))
    for name, family in parsed.items():
        if family["kind"] != "histogram":
            continue
        # Group bucket samples by their non-le labels.
        series: dict = {}
        for (suffix, labels), value in family["samples"].items():
            if suffix != "_bucket":
                continue
            le = dict(labels)["le"]
            rest = tuple(kv for kv in labels if kv[0] != "le")
            series.setdefault(rest, []).append((float(le), value))
        for rest, buckets in series.items():
            buckets.sort(key=lambda kv: kv[0])
            counts = [count for _, count in buckets]
            assert counts == sorted(counts), f"{name}{rest}: not monotone"
            assert buckets[-1][0] == float("inf")
            # +Inf bucket equals the total observation count
            total = family["samples"][("_count", rest)]
            assert buckets[-1][1] == total
