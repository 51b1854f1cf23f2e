"""The paper's evaluation claims (Figs. 3-20), checked on the numbers the
paper CLI prints.

Each row of :data:`CLAIMS` is one claim: the figure, the paper's words,
and a predicate over the figure's points.  The points are computed once
per session by ``repro.tools.paper.SECTIONS`` at standard sizes -- the
calls behind ``python -m repro.tools.paper`` -- plus the cells of
:data:`OFF_GRID`, which some claims need and the CLI does not print.

A claim the simulator does not reproduce on that grid is a strict xfail
whose reason names its EXPERIMENTS.md known deviation; no predicate gets
a tolerance to make it pass.  Every threshold and tolerance says why
beside it; the common one, :func:`flat`, is float rounding.
"""

from __future__ import annotations

import math
import pathlib
import re
import typing

import pytest

from repro.tools import paper

STANDARD = paper.SIZES[False]
#: NAS class B cells run one iteration: B is the largest class, and the
#: figures' claims about it are about shape, not run length.
CLASS_B = STANDARD._replace(klasses=("B",), niter=1)

#: Cells a claim needs that the paper CLI does not compute, as
#: ``(section key, sizes, grid keywords of that section's points)``.
OFF_GRID: "list[tuple[str, typing.Any, dict]]" = [
    ("fig03", STANDARD, {"sweep": (45e-6, 60e-6)}),
    *((key, STANDARD, {"sweep": (1.75e-3, 2.0e-3)})
      for key in ("fig04", "fig05", "fig06", "fig07", "fig08", "fig09")),
    ("fig10", STANDARD, {"procs": (16,)}),
    ("fig11", CLASS_B, {"procs": (4,)}),
    ("fig12", STANDARD, {"procs": (16,)}),
    ("fig14_18", STANDARD, {"procs": (16,)}),
    ("fig14_18", CLASS_B, {"klass": "B", "procs": (4, 9, 16)}),
    ("fig19", STANDARD, {"procs": (16,)}),
    # MG classes A and B share the 256^3 grid and differ in iteration
    # count (4 vs 20 in NPB), scaled to 1 vs 3.
    ("fig19", STANDARD, {"klass": "B", "procs": (4, 8, 16), "niter": 3}),
    ("fig20", STANDARD, {"cells": (("bt", 4), ("bt", 9), ("cg", 8),
                                   ("ft", 4), ("sp", 4), ("sp", 9),
                                   ("mg", 4), ("mg", 8))}),
]

EXPERIMENTS = pathlib.Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


class Figures:
    """Each figure's CLI points plus its off-grid cells, by section key."""

    def __init__(self) -> None:
        self.points = {key: list(section.points(STANDARD))
                       for key, section in paper.SECTIONS.items()
                       if key != "robustness"}
        for key, sizes, grid in OFF_GRID:
            self.points[key] += paper.SECTIONS[key].points(sizes, **grid)

    def micro(self, key: str) -> list:
        """A micro figure's points in compute order."""
        return sorted(self.points[key], key=lambda p: p.compute_time)

    def cell(self, key: str, klass: str, nprocs: int, variant: str = ""):
        """One NAS / SP point by class, rank count and (MG) variant."""
        [point] = [p for p in self.points[key] if p.klass == klass
                   and p.nprocs == nprocs and getattr(p, "variant", "") == variant]
        return point

    def cells(self, key: str, procs: "typing.Iterable[int] | None" = None):
        wanted = None if procs is None else set(procs)
        return [p for p in self.points[key]
                if wanted is None or p.nprocs in wanted]


@pytest.fixture(scope="session")
def figures() -> Figures:
    return Figures()


def flat(values: "typing.Sequence[float]") -> bool:
    """All equal up to float rounding.

    A mean wait is taken on an absolute clock that grows with the inserted
    computation, so two runs on the same simulated path differ in the last
    digits (measured: < 1e-14 relative).  ``rel_tol=1e-9`` admits that and
    nothing a model change would produce.
    """
    return all(math.isclose(v, values[0], rel_tol=1e-9) for v in values)


def rising(values: "typing.Sequence[float]") -> bool:
    return all(a <= b for a, b in zip(values, values[1:]))


def short_long(point, attr: str) -> "tuple[float, float]":
    """A NAS report's ``attr`` summed over short (< 16 KiB) and long bins."""
    bins = point.report.total.bins.bins
    return (sum(getattr(b, attr) for b in bins[:2]),
            sum(getattr(b, attr) for b in bins[2:]))


class Claim(typing.NamedTuple):
    fig: int
    quote: str
    check: "typing.Callable[[Figures], None]"
    deviation: "str | None"  # why the simulator does not reproduce it


CLAIMS: "list[Claim]" = []


def claim(fig: int, quote: str, deviation: "str | None" = None):
    def register(check):
        CLAIMS.append(Claim(fig, quote, check, deviation))
        return check
    return register


# -- Figs. 3-9: the two-rank microbenchmarks --------------------------------
@claim(3, "short message transfers exhibit full overlap ability")
def eager_sender_overlap_rises_to_full(f):
    maxes = [p.max_pct("sender") for p in f.micro("fig03")]
    assert rising(maxes) and maxes[0] < 35.0 and maxes[-1] == 100.0, maxes


@claim(3, "the receiver's min overlap is asserted zero and its max "
       "overlap is the full transfer time")
def eager_receiver_bounds_are_zero_and_full(f):
    assert {(p.min_pct("receiver"), p.max_pct("receiver"))
            for p in f.micro("fig03")} == {(0.0, 100.0)}


@claim(3, "the receiver's wait time stops changing once overlap saturates")
def eager_receiver_wait_settles(f):
    waits = [p.wait_time("receiver") for p in f.micro("fig03")]
    assert waits[-1] <= waits[0] and flat(waits[-2:]), waits


@claim(4, "The pipelined RDMA scheme is only able to overlap the initial "
       "fragment.  Therefore, the overlap curves remain flat even with "
       "increasing computation")
def pipelined_isend_overlap_is_flat_and_low(f):
    maxes = [p.max_pct("sender") for p in f.micro("fig04")]
    # 30 %: the legacy bound for "the initial fragment only", which is
    # 128 KiB of 1 MiB (12.5 %).
    assert all(m < 30.0 for m in maxes), maxes
    assert len(set(maxes[1:])) == 1, maxes  # exactly flat once compute > 0


@claim(4, "the wait time stays high")
def pipelined_isend_wait_stays_high(f):
    # 100 us: over ten times the eager receiver's wait of Fig. 3 (~6 us).
    assert min(p.wait_time("sender") for p in f.micro("fig04")) > 1e-4


@claim(5, "This explains the improved overlap when computation is "
       "increased")
def direct_isend_overlap_rises(f):
    points = f.micro("fig05")
    maxes = [p.max_pct("sender") for p in points]
    mins = [p.min_pct("sender") for p in points]
    assert rising(maxes) and maxes[0] < 30.0 and maxes[-1] == 100.0, maxes
    # The min bound follows: real, guaranteed savings (80 %: the legacy
    # floor; it reads 99.97 % once the transfer is hidden).
    assert mins[0] == 0.0 and mins[-1] > 80.0, mins


@claim(5, "the progressive drop in wait time ... With full "
       "computation-communication overlap, the wait time does not change "
       "any further")
def direct_isend_wait_drops_then_flattens(f):
    waits = [p.wait_time("sender") for p in f.micro("fig05")]
    assert all(a > b for a, b in zip(waits[:-2], waits[1:-1])), waits
    assert waits[-1] < 0.15 * waits[0] and flat(waits[-2:]), waits


@claim(6, "pipelined RDMA is able to overlap the first fragment")
def pipelined_irecv_overlaps_first_fragment_only(f):
    maxes = [p.max_pct("receiver") for p in f.micro("fig06")]
    assert all(0.0 < m < 30.0 for m in maxes), maxes  # 30 %: as in Fig. 4


@claim(6, "Consequently, the wait time is high and is unchanged for "
       "varying computation lengths")
def pipelined_irecv_wait_high_and_unchanged(f):
    waits = [p.wait_time("receiver") for p in f.micro("fig06")]
    assert min(waits) > 1e-4 and flat(waits[1:]), waits  # 1e-4: as in Fig. 4


@claim(7, "there is zero overlap for direct RDMA")
def direct_irecv_overlaps_nothing(f):
    assert {(p.min_pct("receiver"), p.max_pct("receiver"))
            for p in f.micro("fig07")} == {(0.0, 0.0)}


@claim(7, "the wait time is high and is unchanged for varying computation "
       "lengths")
def direct_irecv_wait_high_and_unchanged(f):
    waits = [p.wait_time("receiver") for p in f.micro("fig07")]
    assert min(waits) > 1e-3 and flat(waits[1:]), waits
    # With no computation the wait is 0.9 % longer (1523.4 vs 1509.3 us);
    # 1.3 is the legacy bound on the whole sweep's spread.
    assert max(waits) / min(waits) < 1.3, waits


@claim(7, "there is zero overlap for direct RDMA whereas pipelined RDMA is "
       "able to overlap the first fragment")
def pipelined_irecv_beats_direct(f):
    [pipelined] = [p for p in f.micro("fig06") if p.compute_time == 1e-3]
    [direct] = [p for p in f.micro("fig07") if p.compute_time == 1e-3]
    assert pipelined.max_pct("receiver") > direct.max_pct("receiver")


@claim(8, "the initiating fragment is the only portion of the message that "
       "is overlapped in pipelined RDMA")
def pipelined_both_sides_overlap_first_fragment_only(f):
    for p in f.micro("fig08"):  # 30 %: as in Fig. 4
        assert p.max_pct("sender") < 30.0 and p.max_pct("receiver") < 30.0


@claim(9, "the direct RDMA approach allows the possibility of complete "
       "overlap for the sender")
def direct_isend_irecv_sender_reaches_complete_overlap(f):
    maxes = [p.max_pct("sender") for p in f.micro("fig09")]
    assert rising(maxes) and maxes[0] < 30.0 and maxes[-1] == 100.0, maxes


@claim(9, "the receiver, blinded by polling progress during its compute "
       "region, initiates the read only inside Wait")
def direct_isend_irecv_receiver_overlaps_nothing(f):
    assert all(p.max_pct("receiver") == 0.0 for p in f.micro("fig09")[1:])


# -- Figs. 10-13: NAS characterization ---------------------------------------
@claim(10, "BT is dominated by long messages")
def bt_long_messages_carry_the_bytes(f):
    for p in f.cells("fig10"):
        if p.klass == "A":
            short, long = short_long(p, "bytes")
            assert long > short, (p.nprocs, short, long)


@claim(10, "since long messages have less potential for overlap, observed "
       "overlaps drop [for larger problem sizes at small processor counts]")
def bt_overlap_drops_for_larger_class(f):
    assert f.cell("fig10", "A", 4).max_pct < f.cell("fig10", "S", 4).max_pct


@claim(11, "CG sends a larger proportion of short messages")
def cg_short_messages_dominate_the_count(f):
    short, long = short_long(f.cell("fig11", "A", 4), "count")
    assert short > long


@claim(11, "Consequently the overlap results are higher for CG than for BT")
def cg_overlaps_more_than_bt(f):
    assert f.cell("fig11", "A", 4).max_pct > f.cell("fig10", "A", 4).max_pct


@claim(11, "overlap drops for larger problem sizes at small processor counts")
def cg_overlap_drops_for_larger_class(f):
    assert f.cell("fig11", "B", 4).max_pct < f.cell("fig11", "S", 4).max_pct


@claim(12, "LU overlap numbers are above 70%")
def lu_overlap_above_70(f):
    for p in f.cells("fig12"):
        assert p.max_pct > 70.0, (p.klass, p.nprocs, p.max_pct)


@claim(12, "[LU overlap numbers] increase as the problem size is reduced")
def lu_overlap_rises_as_class_shrinks(f):
    for n in (4, 8):
        maxes = [f.cell("fig12", k, n).max_pct for k in ("A", "W", "S")]
        assert rising(maxes), (n, maxes)


@claim(12, "[LU overlap numbers increase as] the processor count is "
       "increased", deviation="EXPERIMENTS.md known deviation 5: LU's max "
       "falls from 4 to 8 ranks in every class (S 94.90 -> 94.26 %, "
       "W 85.63 -> 85.18 %, A 80.83 -> 79.97 %)")
def lu_overlap_rises_with_ranks(f):
    for k in STANDARD.klasses:
        maxes = [f.cell("fig12", k, n).max_pct for n in (4, 8, 16)]
        assert rising(maxes), (k, maxes)


@claim(12, "The non-overlapped time is incurred in communicating long "
       "messages")
def lu_non_overlap_sits_in_long_messages(f):
    p = f.cell("fig12", "A", 4)
    (short_x, long_x), (short_ov, long_ov) = (short_long(p, "xfer_time"),
                                              short_long(p, "max_overlap"))
    assert long_x - long_ov > short_x - short_ov


@claim(13, "FT has low scope for overlap")
def ft_overlap_is_low(f):
    # Low against the other NAS figures: below the lowest max of BT, CG
    # and LU on the same grid (BT A.4, 35.6 %).
    others = min(p.max_pct for key in ("fig10", "fig11", "fig12")
                 for p in f.cells(key, procs=(4, 8, 9)))
    for p in f.cells("fig13"):
        # 5 %: the legacy bound on the guaranteed share.
        assert p.max_pct < others and p.min_pct < 5.0, (p.klass, p.nprocs)


@claim(13, "These transfers do not get overlapped with computation.  The "
       "limited amount of overlap is due to short messages being exchanged "
       "in collectives like Reduce and Bcast")
def ft_overlap_comes_from_short_messages(f):
    for p in f.cells("fig13"):
        short, long = short_long(p, "max_overlap")
        assert long == 0.0 and short > 0.0, (p.klass, p.nprocs, short, long)


# -- Figs. 14-18: SP tuning ---------------------------------------------------
def _sp(f, klass):
    return [r for r in f.points["fig14_18"] if r.klass == klass]


@claim(14, "a high of 98% overlap with problem size A and 9 processors")
def sp_section_class_a_reaches_98(f):
    assert f.cell("fig14_18", "A", 9).section("modified").max_overlap_pct >= 98.0
    for r in _sp(f, "A"):
        orig, mod = r.section("original"), r.section("modified")
        # 90 / +20 points: the legacy bounds for "a high of 98 %" at every
        # rank count, against an original max of 50 %.
        assert mod.max_overlap_pct > 90.0, r.nprocs
        assert mod.max_overlap_pct > orig.max_overlap_pct + 20.0, r.nprocs


@claim(15, "maximum overlap percentage for all processor counts with "
       "problem size B was improved to around 80%")
def sp_section_class_b_improves(f):
    for r in _sp(f, "B"):
        mod = r.section("modified").max_overlap_pct
        # 75 %: "around 80 %", read as no more than 5 points below it.
        assert mod > 75.0 and mod > r.section("original").max_overlap_pct


def _limited_full_code_gains(results):
    for r in results:
        full_o, full_m = r.full("original"), r.full("modified")
        sec_o, sec_m = r.section("original"), r.section("modified")
        full_gain = full_m.max_overlap_pct - full_o.max_overlap_pct
        sec_gain = sec_m.max_overlap_pct - sec_o.max_overlap_pct
        assert 0.0 < full_gain < sec_gain, (r.klass, r.nprocs)
        assert full_m.max_overlap_pct < sec_m.max_overlap_pct


_COPY_FACES = ("The gains over the complete code are limited by a substantial "
               "volume of data being communicated in routine copy_faces with "
               "no computation to overlap")


@claim(16, _COPY_FACES + " [class A]")
def sp_full_code_gains_limited_class_a(f):
    _limited_full_code_gains(_sp(f, "A"))


@claim(17, _COPY_FACES + " [class B]")
def sp_full_code_gains_limited_class_b(f):
    _limited_full_code_gains(_sp(f, "B"))


@claim(18, "overall MPI time showing a drop in all cases and a maximum "
       "improvement of close to 23% with problem size B and 4 processors")
def sp_mpi_time_drops_everywhere(f):
    results = f.points["fig14_18"]
    for r in results:
        assert r.mpi_time_modified < r.mpi_time_original, (r.klass, r.nprocs)
    # 15 %: the legacy floor for "close to 23 %".
    assert max(r.mpi_time_improvement_pct for r in results) > 15.0


# -- Fig. 19: MG on ARMCI -----------------------------------------------------
@claim(19, "The non-blocking code shows very high maximum overlap "
       "percentage, with 99% overlap being reported for all processor "
       "counts with problem size B")
def mg_nonblocking_class_b_reaches_99(f):
    for p in f.points["fig19"]:
        if p.variant == "nonblocking" and p.klass == "B":
            assert p.max_pct >= 99.0, (p.nprocs, p.max_pct)


@claim(19, "the blocking variant, whose transfers begin and end inside one "
       "call, cannot overlap at all")
def mg_blocking_overlaps_nothing(f):
    for p in f.points["fig19"]:
        if p.variant == "blocking":
            assert p.max_pct == 0.0, (p.klass, p.nprocs)


# -- Fig. 20: instrumentation overhead ----------------------------------------
@claim(20, "an instrumentation overhead of less than 0.9% of the total "
       "execution time for all test cases")
def overhead_below_0_9_percent(f):
    for p in f.points["fig20"]:
        assert p.time_instrumented >= p.time_uninstrumented, p.benchmark
        assert p.overhead_pct < 0.9, (p.benchmark, p.nprocs, p.overhead_pct)


@pytest.mark.parametrize("row", [
    pytest.param(row, id=f"fig{row.fig:02d}-{row.check.__name__}", marks=(
        pytest.mark.xfail(strict=True, reason=row.deviation)
        if row.deviation else ()))
    for row in CLAIMS
])
def test_claim(row: Claim, figures: Figures) -> None:
    row.check(figures)


def _documented_figures() -> "set[int]":
    """Figure numbers in the first column of EXPERIMENTS.md's tables."""
    found = set()
    for cell in re.findall(r"^\| *(\d+(?:/\d+)*) *\|", EXPERIMENTS.read_text(
            encoding="utf-8"), flags=re.MULTILINE):
        found.update(int(n) for n in cell.split("/"))
    return found


def test_every_documented_figure_has_a_claim() -> None:
    documented = _documented_figures()
    assert documented == set(range(3, 21))
    assert documented <= {row.fig for row in CLAIMS}


def test_every_claim_names_a_documented_figure() -> None:
    assert {row.fig for row in CLAIMS} <= _documented_figures()
