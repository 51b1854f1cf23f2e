"""Tests for the a-priori transfer-time table."""

import pytest

from repro.core.xfer_table import XferTable


@pytest.fixture
def table():
    # 1 KiB -> 10 us, 1 MiB -> 1 ms style measurements.
    return XferTable([1024.0, 65536.0, 1048576.0], [10e-6, 80e-6, 1.1e-3])


def test_exact_points_returned_verbatim(table):
    assert table.time_for(1024) == pytest.approx(10e-6)
    assert table.time_for(65536) == pytest.approx(80e-6)
    assert table.time_for(1048576) == pytest.approx(1.1e-3)


def test_interpolation_between_points(table):
    mid = (1024 + 65536) / 2
    expect = (10e-6 + 80e-6) / 2
    assert table.time_for(mid) == pytest.approx(expect)


def test_zero_and_negative_sizes_cost_nothing(table):
    assert table.time_for(0) == 0.0
    assert table.time_for(-5) == 0.0


def test_below_range_scales_by_smallest_rate(table):
    assert table.time_for(512) == pytest.approx(10e-6 * 512 / 1024)


def test_above_range_extrapolates_with_boundary_bandwidth(table):
    slope = (1.1e-3 - 80e-6) / (1048576 - 65536)
    expect = 1.1e-3 + slope * (2 * 1048576 - 1048576)
    assert table.time_for(2 * 1048576) == pytest.approx(expect)


def test_monotone_in_size(table):
    sizes = [2**k for k in range(0, 24)]
    times = [table.time_for(s) for s in sizes]
    assert all(b >= a for a, b in zip(times, times[1:]))


def test_bandwidth_for(table):
    assert table.bandwidth_for(1048576) == pytest.approx(1048576 / 1.1e-3)


def test_single_point_table_scales_proportionally():
    t = XferTable([1000.0], [1e-4])
    assert t.time_for(2000.0) == pytest.approx(2e-4)
    assert t.time_for(500.0) == pytest.approx(5e-5)


def test_roundtrip_through_disk(tmp_path, table):
    path = tmp_path / "xfer.tsv"
    table.save(path)
    loaded = XferTable.load(path)
    assert loaded == table


def test_loads_skips_comments_and_blank_lines():
    text = "# header\n\n1024\t1e-5\n2048\t2e-5\n"
    t = XferTable.loads(text)
    assert t.time_for(1024) == pytest.approx(1e-5)


def test_loads_rejects_malformed_lines():
    with pytest.raises(ValueError, match="malformed"):
        XferTable.loads("1024 1e-5 junk\n")


def test_from_model_matches_latency_bandwidth():
    t = XferTable.from_model(latency=5e-6, bandwidth=1e9)
    assert t.time_for(1e6) == pytest.approx(5e-6 + 1e-3, rel=1e-6)


@pytest.mark.parametrize(
    "sizes,times",
    [
        ([], []),
        ([0.0], [1e-6]),
        ([-1.0], [1e-6]),
        ([2.0, 1.0], [1e-6, 2e-6]),
        ([1.0, 1.0], [1e-6, 2e-6]),
        ([1.0], [0.0]),
        ([1.0], [-1e-9]),
        ([1.0, 2.0], [1e-6]),
    ],
)
def test_invalid_construction_rejected(sizes, times):
    with pytest.raises(ValueError):
        XferTable(sizes, times)


def test_equality_and_repr(table):
    same = XferTable([1024.0, 65536.0, 1048576.0], [10e-6, 80e-6, 1.1e-3])
    assert table == same
    assert table != XferTable([1.0], [1e-6])
    assert table.__eq__(42) is NotImplemented
    assert "points" in repr(table)


# ---------------------------------------------------------------------------
# Validation: every rejection has its own message; nan/inf never get in
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "sizes,times,message",
    [
        ([1.0, 2.0], [1e-6], "1-D arrays of equal length"),
        ([[1.0, 2.0]], [[1e-6, 2e-6]], "1-D arrays of equal length"),
        (3.0, 1e-6, "1-D arrays of equal length"),
        ([], [], "cannot be empty"),
        ([0.0, 1.0], [1e-6, 2e-6], "sizes must be positive"),
        ([1.0, 1.0], [1e-6, 2e-6], "strictly increasing"),
        ([1.0, 2.0], [1e-6, 0.0], "times must be positive"),
    ],
)
def test_each_rejection_keeps_its_message(sizes, times, message):
    with pytest.raises(ValueError, match=message):
        XferTable(sizes, times)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "sizes,times",
    [
        ([1.0, _NAN, 4.0], [1e-6, 2e-6, 3e-6]),
        ([1.0, 2.0, 4.0], [1e-6, 2e-6, _NAN]),
        ([1.0, _NAN, 4.0], [1e-6, 2e-6, _NAN]),  # the reported case
        ([1.0, 2.0, _INF], [1e-6, 2e-6, 3e-6]),
        ([1.0, 2.0, 4.0], [1e-6, 2e-6, _INF]),
        ([_NAN], [1e-6]),
        ([1.0], [_NAN]),
    ],
)
def test_non_finite_points_are_rejected(sizes, times):
    """At the parent ``np.any(nan <= 0)`` was False, the table was
    accepted, and ``time_for`` returned nan into every bound."""
    with pytest.raises(ValueError, match="finite"):
        XferTable(sizes, times)
    with pytest.raises(ValueError, match="finite"):
        XferTable.loads("\n".join(f"{s}\t{t}" for s, t in zip(sizes, times)))


# ---------------------------------------------------------------------------
# Float storage against the numpy-built table it replaced
# ---------------------------------------------------------------------------
class _NumpyTable:
    """The array-backed table of PRs 1-14, verbatim, kept as the oracle."""

    def __init__(self, sizes, times):
        import numpy as np

        self.sizes = np.asarray(sizes, dtype=np.float64)
        self.times = np.asarray(times, dtype=np.float64)
        self._sizes_list = [float(s) for s in self.sizes]
        self._times_list = [float(t) for t in self.times]
        self._slopes = [
            (t1 - t0) / (s1 - s0)
            for (s0, s1), (t0, t1) in zip(
                zip(self._sizes_list, self._sizes_list[1:]),
                zip(self._times_list, self._times_list[1:]),
            )
        ]
        self._tail_slope = max(self._slopes[-1], 0.0) if self._slopes else 0.0

    def time_for(self, nbytes):
        import bisect

        sizes, times = self._sizes_list, self._times_list
        if nbytes <= 0:
            return 0.0
        if nbytes <= sizes[0]:
            return times[0] * nbytes / sizes[0]
        if nbytes >= sizes[-1]:
            if len(sizes) == 1:
                return times[-1] * nbytes / sizes[-1]
            return times[-1] + self._tail_slope * (nbytes - sizes[-1])
        i = bisect.bisect_right(sizes, nbytes) - 1
        return self._slopes[i] * (nbytes - sizes[i]) + times[i]

    def dumps(self):
        lines = ["# repro xfer-time table: bytes<TAB>seconds"]
        lines += [f"{s:.17g}\t{t:.17g}" for s, t in zip(self.sizes, self.times)]
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        import numpy as np

        return bool(np.array_equal(self.sizes, other._sizes_list)
                    and np.array_equal(self.times, other._times_list))


def _points():
    from hypothesis import strategies as st

    size = st.floats(min_value=1.0, max_value=1e9, allow_nan=False)
    time = st.floats(min_value=1e-9, max_value=10.0, allow_nan=False)
    return st.lists(st.tuples(size, time), min_size=1, max_size=24,
                    unique_by=lambda p: p[0]).map(sorted)


def test_float_storage_matches_numpy_reference():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    queries = st.lists(
        st.floats(min_value=-10.0, max_value=4e9, allow_nan=False),
        min_size=1, max_size=16)

    @given(_points(), queries)
    @settings(max_examples=200, deadline=None)
    def check(points, queries):
        sizes = [s for s, _t in points]
        times = [t for _s, t in points]
        table, ref = XferTable(sizes, times), _NumpyTable(sizes, times)
        for q in queries + sizes:
            assert table.time_for(q) == ref.time_for(q)
        assert table.dumps() == ref.dumps()
        # Equal exactly when the reference says so, however it was built.
        for other in (XferTable(ref.sizes, ref.times),
                      XferTable.loads(ref.dumps()),
                      XferTable(sizes, [2.0 * t for t in times]),
                      XferTable(sizes[:1], times[:1])):
            assert (table == other) == (ref == other)

    check()


def test_pickle_carries_the_points_not_the_arrays(table):
    import pickle

    cold = pickle.dumps(table)
    assert table.time_for(2048.0) > 0
    warm = pickle.dumps(table)
    assert warm == cold and b"numpy" not in warm
    clone = pickle.loads(warm)
    assert clone == table
    assert clone.time_for(2048.0) == table.time_for(2048.0)


#: ``pickle.dumps(table, protocol=4)`` of the fixture table, made by the
#: parent commit (arrays, lists, slopes and a one-entry memo in the state).
_PARENT_PICKLE = """
gASVwwEAAAAAAACMFXJlcHJvLmNvcmUueGZlcl90YWJsZZSMCVhmZXJUYWJsZZSTlCmBlH2U
KIwFc2l6ZXOUjBZudW1weS5fY29yZS5tdWx0aWFycmF5lIwMX3JlY29uc3RydWN0lJOUjAVu
dW1weZSMB25kYXJyYXmUk5RLAIWUQwFilIeUUpQoSwFLA4WUaAmMBWR0eXBllJOUjAJmOJSJ
iIeUUpQoSwOMATyUTk5OSv////9K/////0sAdJRiiUMYAAAAAAAAkEAAAAAAAADwQAAAAAAA
ADBBlHSUYowFdGltZXOUaAhoC0sAhZRoDYeUUpQoSwFLA4WUaBWJQxjxaOOItfjkPvFo44i1
+BQ/L26jAbwFUj+UdJRijAtfc2l6ZXNfbGlzdJRdlChHQJAAAAAAAABHQPAAAAAAAABHQTAA
AAAAAABljAtfdGltZXNfbGlzdJRdlChHPuT4tYjjaPFHPxT4tYjjaPFHP1IFvAGjbi9ljAdf
c2xvcGVzlF2UKEc+EqQvlh95ukc+EdNnGsFMZmWMC190YWlsX3Nsb3BllEc+EdNnGsFMZowF
X21lbW+UfZRHQKAAAAAAAABHPudNO3unWChzdWIu
"""


def test_table_pickled_by_the_parent_loads_equal_or_misses(table, tmp_path):
    """An on-disk cache entry written before the storage change is either
    the same table or a plain miss -- never an exception, never a table
    that answers differently."""
    import base64
    import os

    from repro.experiments.runner import ResultCache

    cache = ResultCache(tmp_path)
    key = "ab" + "0" * 62
    path = cache._path(key)
    os.makedirs(os.path.dirname(path))
    with open(path, "wb") as fh:
        fh.write(base64.b64decode(_PARENT_PICKLE))
    found, old = cache.get(key)
    if found:
        assert old == table and table == old
        assert old.dumps() == table.dumps()
        assert old.time_for(3000.0) == table.time_for(3000.0)
    else:
        assert old is None and cache.misses == 1
