"""The paper's evaluation claims (Figs. 3-20) and the design-choice
findings of EXPERIMENTS.md's Ablations table, checked on the numbers the
code produces.

Each row of :data:`CLAIMS` is one claim: the figure number or ablation Id,
the finding's words, and a predicate over that row's points.  A figure's
points are computed once per session by ``repro.tools.paper.SECTIONS`` at
standard sizes -- the calls behind ``python -m repro.tools.paper`` -- plus
the cells of :data:`OFF_GRID`, which some claims need and the CLI does
not print.  An ablation's points are computed once per session, on first
use, by the driver its finding came from (:class:`Ablations`).  An
ablation Id with no row is in :data:`HELD_BY`, which names the tier-1
test that already asserts it.

A claim the simulator does not reproduce on that grid is a strict xfail
whose reason names its cause (for a figure, its EXPERIMENTS.md known
deviation); no predicate gets a tolerance to make it pass.  Every
threshold and tolerance says why beside it; the common one, :func:`flat`,
is float rounding.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import math
import pathlib
import re
import statistics
import typing

import pytest

from repro.armci import ArmciConfig, run_armci_app
from repro.core.measures import DETAILED_EDGES
from repro.core.monitor import DEFAULT_QUEUE_CAPACITY
from repro.core.trace import TraceSink, replay_overlap
from repro.experiments.crossover import crossover_sweep, find_crossover
from repro.experiments.micro import overlap_sweep
from repro.experiments.nas_char import MPI_BENCHMARKS, characterize
from repro.experiments.scaling import scaling_sweep
from repro.experiments.sp_tuning import iprobe_placement_sweep, sp_tuning
from repro.mpisim.config import MpiConfig, mvapich2_like, openmpi_like
from repro.nas.lu import lu_app
from repro.nas.mg import mg_app
from repro.netsim.params import NetworkParams
from repro.runtime.launcher import default_xfer_table, run_app
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
    key: "int | str"  # figure number, or the Ablations table's Id
    quote: str
    check: "typing.Callable[[typing.Any], None]"  # Figures or Ablations
    deviation: "str | None"  # why the simulator does not reproduce it


CLAIMS: "list[Claim]" = []


def claim(key: "int | str", quote: str, deviation: "str | None" = None):
    def register(check):
        CLAIMS.append(Claim(key, quote, check, deviation))
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


# -- Ablations: design choices, not paper figures ----------------------------
KiB, MiB = 1024, 1024 * 1024


class Ablations:
    """Each ablation's points, computed on first use by the driver its
    EXPERIMENTS.md finding came from."""

    @functools.cached_property
    def eager_limits(self) -> "dict[int, typing.Any]":
        """EA1: a 64 KiB Isend-Irecv with 0.5 ms of compute, by eager limit."""
        return {limit: overlap_sweep(
            "isend_irecv", 64 * KiB, [0.5e-3],
            MpiConfig(name=f"eager{limit}", eager_limit=limit,
                      rndv_mode="rget", leave_pinned=True), iters=40)[0]
            for limit in (8 * KiB, 32 * KiB, 128 * KiB)}

    @functools.cached_property
    def forced_rendezvous(self) -> list:
        """EA1: a 64 KiB Isend-Recv over a 1 KiB eager limit, 0-0.4 ms."""
        return overlap_sweep(
            "isend_recv", 64 * KiB, [0.0, 0.2e-3, 0.4e-3],
            MpiConfig(name="small-eager", eager_limit=1024, rndv_mode="rget",
                      leave_pinned=True), iters=40)

    @functools.cached_property
    def frag_sizes(self) -> list:
        """EA2: a 1 MiB pipelined Isend-Recv, 1.5 ms of compute, by frag size."""
        return [overlap_sweep(
            "isend_recv", MiB, [1.5e-3],
            MpiConfig(name=f"frag{frag}", eager_limit=16 * KiB,
                      rndv_mode="pipelined", frag_size=frag), iters=30)[0]
            for frag in (32 * KiB, 128 * KiB, 512 * KiB)]

    @functools.cached_property
    def regcache(self) -> "dict[bool, typing.Any]":
        """EA3: a reused 1 MiB rget buffer, registration cache on / off."""
        return {cached: overlap_sweep(
            "isend_recv", MiB, [2.0e-3],
            MpiConfig(name="rc-on" if cached else "rc-off",
                      eager_limit=16 * KiB, rndv_mode="rget",
                      leave_pinned=cached), iters=30, warmup=3)[0]
            for cached in (True, False)}

    @functools.cached_property
    def queue_capacities(self) -> list:
        """EA4: LU S.4, one iteration, at queue capacity 16, 256, 4096."""
        return [characterize("lu", "S", 4, niter=1,
                             config=mvapich2_like(queue_capacity=cap))
                for cap in (16, 256, 4096)]

    @functools.cached_property
    def iprobe_counts(self) -> "dict[int, typing.Any]":
        """EA5: SP A.4, two iterations, by Iprobe calls per region."""
        return {r.iprobe_calls: r for r in iprobe_placement_sweep(
            "A", 4, counts=(0, 1, 2, 4, 8, 16), niter=2)}

    @functools.cached_property
    def rails(self) -> list:
        """EA6: a 2 MiB pipelined Isend-Recv, 1 ms of compute, by rail count."""
        return [overlap_sweep(
            "isend_recv", 2 * MiB, [1.0e-3],
            MpiConfig(name=f"rails{rails}", eager_limit=16 * KiB,
                      rndv_mode="pipelined", frag_size=128 * KiB,
                      nics_per_node=rails), iters=20)[0]
            for rails in (1, 2, 4)]

    @functools.cached_property
    def traced_lu(self) -> "tuple[typing.Any, TraceSink]":
        """EA7: LU A.4 for six iterations, rank 0's stamps traced."""
        sinks = {}

        def traced(ctx, *args):
            sinks[ctx.rank] = sink = TraceSink()
            sink.attach(ctx.monitor)
            return (yield from lu_app(ctx, *args))

        result = run_app(traced, 4, config=mvapich2_like(),
                         app_args=("A", 6, None, None))
        return result, sinks[0]

    @functools.cached_property
    def mg_strategies(self) -> "dict[str | None, typing.Any]":
        """EA8: non-blocking MG A.8, rank 0, by strategy (None: contiguous)."""
        return {strided: run_armci_app(
            mg_app, 8, config=ArmciConfig(),
            app_args=("A", 1, None, False, 2, strided)).report(0).total
            for strided in (None, "packed", "direct")}

    @functools.cached_property
    def bandwidths(self) -> list:
        """EA10: SP A.4, one iteration, by fabric bandwidth."""
        return [sp_tuning("A", 4, niter=1, params=dataclasses.replace(
            NetworkParams(), bandwidth=bw))
            for bw in (100e6, 350e6, 700e6, 1.4e9, 5.6e9)]

    @functools.cached_property
    def crossover(self) -> "dict[tuple[float, str], typing.Any]":
        """EC1: eager and rget, each forced, from 1 KiB to 4 MiB."""
        return {(p.nbytes, p.protocol): p for p in crossover_sweep(
            [1024.0, 8192.0, 65536.0, 262144.0, 1048576.0, 4194304.0])}

    @functools.cached_property
    def jitter(self) -> "dict[float, list]":
        """EJ1: 10 KiB eager with 10 us of compute (microseconds of jitter
        move its timing) by jitter level; four iteration counts vary the draws."""
        return {jitter: [overlap_sweep(
            "isend_irecv", 10 * KiB, [10e-6], openmpi_like(),
            params=NetworkParams(latency_jitter_frac=jitter),
            iters=20 + extra)[0] for extra in range(4)]
            for jitter in (0.0, 0.1, 0.3, 0.6)}

    @functools.cached_property
    def fault_matrix(self) -> list:
        """ER1: the paper CLI's robustness section."""
        return paper.SECTIONS["robustness"].points(STANDARD)

    @functools.cached_property
    def scaling(self) -> list:
        """ES1: a weak-scaled ring exchange on 2 to 32 ranks."""
        return scaling_sweep(proc_counts=(2, 4, 8, 16, 32))

    @functools.cached_property
    def size_bins(self) -> "dict[str, typing.Any]":
        """APP: process 0's detailed size bins, class A / 4 ranks, by kernel."""
        return {bench: characterize(bench, "A", 4, niter=2, config=(
            dataclasses.replace(MPI_BENCHMARKS[bench][1](),
                                bin_edges=DETAILED_EDGES))).report.total.bins
            for bench in ("bt", "cg", "lu", "ft", "is")}


@pytest.fixture(scope="session")
def ablations() -> Ablations:
    return Ablations()


@claim("EA1", "limit 128 KiB (eager) ⇒ receiver [0, 100]% case-3; limit "
       "8–32 KiB (rget rendezvous) ⇒ receiver ≈ 0%")
def receiver_overlap_flips_at_the_eager_limit(a):
    points = a.eager_limits
    eager = points[128 * KiB]
    assert (eager.min_pct("receiver"), eager.max_pct("receiver")) == (0.0, 100.0)
    for limit in (8 * KiB, 32 * KiB):
        # 10 %: the legacy reading of "≈ 0"; both read 0.0 (the receiver
        # reads the data inside Wait).
        assert points[limit].max_pct("receiver") < 10.0, limit


@claim("EA1", "with a 1 KiB limit (forced rendezvous) the sender's max "
       "reaches 100% by 0.2 ms of compute")
def forced_rendezvous_sender_overlaps(a):
    # 90 %: the legacy floor; it reads 100 % at 0.2 and 0.4 ms.
    assert a.forced_rendezvous[-1].max_pct("sender") > 90.0


@claim("EA2", "sender max overlap tracks frag0 share: 3.1% @32 KiB, 12.5% "
       "@128 KiB, 50% @512 KiB; wait shrinks accordingly")
def first_fragment_sets_the_pipelined_max(a):
    maxes = [p.max_pct("sender") for p in a.frag_sizes]
    waits = [p.wait_time("sender") for p in a.frag_sizes]
    assert maxes[0] < maxes[1] < maxes[2], maxes
    assert waits[2] < waits[0], waits


@claim("EA3", "cache off: every Isend pays ~288 µs pinning (vs 0.6 µs "
       "cached); receiver MPI time +14%")
def uncached_registration_is_paid_in_the_call(a):
    isend = {on: p.sender.mean_call_time("MPI_Isend") for on, p in a.regcache.items()}
    assert isend[False] > 2 * isend[True], isend  # 2x: the legacy floor; ~460x
    assert a.regcache[False].receiver.mpi_time > a.regcache[True].receiver.mpi_time


@claim("EA4", "measured bounds bit-identical at capacity 16 / 256 / 4096 — "
       "bounded memory loses no information")
def queue_capacity_changes_nothing(a):
    base, *others = [p.report.total for p in a.queue_capacities]
    for m in others:
        assert (m.min_overlap_time, m.max_overlap_time, m.data_transfer_time,
                m.case_counts) == (base.min_overlap_time, base.max_overlap_time,
                                   base.data_transfer_time, base.case_counts)


@claim("EA5", "0 probes [0, 50] %, 1 probe [91.6, 100] %; ≥2 probes: "
       "diminishing returns")
def one_probe_recovers_the_overlap(a):
    maxes = {n: r.section("modified").max_overlap_pct
             for n, r in a.iprobe_counts.items()}
    # +20 points: the legacy floor; it reads +50 (50 -> 100 %).
    assert maxes[1] > maxes[0] + 20.0, maxes
    # 10 points: the legacy bound on "diminishing"; 4 and 16 both read 100 %.
    assert maxes[16] - maxes[4] < 10.0, maxes


@claim("EA6", "1→2 rails: pipelined 2 MiB wait 2.89→1.57 ms; overlap bounds "
       "unchanged (striping buys bandwidth, not overlap)")
def rails_shorten_the_wait_not_the_overlap(a):
    waits = [p.wait_time("sender") for p in a.rails]
    # 0.7: the legacy bound on "about twice as fast"; it reads 0.54.
    assert waits[1] < 0.7 * waits[0] and waits[2] < waits[1], waits
    maxes = [p.max_pct("sender") for p in a.rails]
    # 5 points: the legacy bound on "unchanged"; all three read 6.2 %.
    assert max(maxes) - min(maxes) < 5.0, maxes


@claim("EA7", "offline trace replay yields bit-identical bounds — the "
       "no-tracing design loses nothing")
def trace_replay_matches_the_bounded_pipeline(a):
    result, sink = a.traced_lu
    live = result.report(0).total
    replayed = replay_overlap(
        sink.events, default_xfer_table(result.fabric.params)).total
    assert (replayed.min_overlap_time, replayed.max_overlap_time,
            replayed.case_counts) == (live.min_overlap_time,
                                      live.max_overlap_time, live.case_counts)


@claim("EA7", "5 534-event, 138 350 B trace for 6 LU iterations (unbounded "
       "growth) vs a 102 400 B fixed queue")
def trace_outgrows_the_fixed_queue(a):
    _result, sink = a.traced_lu
    assert len(sink) > DEFAULT_QUEUE_CAPACITY, len(sink)


@claim("EA8", "packed keeps non-blocking MG's min bound at 62%; per-pencil "
       "direct posting erodes it to 19.5% (descriptor CPU lands in-library); "
       "contiguous baseline 96.9%")
def packing_keeps_the_guaranteed_overlap(a):
    contig, packed, direct = (a.mg_strategies[s].min_overlap_pct
                              for s in (None, "packed", "direct"))
    # 50 %: the legacy floor for "most of the guaranteed overlap".
    assert packed > 50.0 and direct < packed <= contig, (contig, packed, direct)


@claim("EA10", "absolute MPI-time savings fall monotonically 10.9 ms → "
       "0.29 ms as bandwidth grows 100 MB/s → 5.6 GB/s; gain 58.7% → 18.9%; "
       "the fix never hurts")
def sp_fix_matters_more_on_slow_fabrics(a):
    saved = [r.mpi_time_original - r.mpi_time_modified for r in a.bandwidths]
    assert all(x > y for x, y in zip(saved, saved[1:])), saved
    # 5x: the legacy floor for "an order of magnitude"; it reads 38x.
    assert saved[0] > 5 * saved[-1], saved
    assert all(r.mpi_time_improvement_pct >= 0.0 for r in a.bandwidths)


@claim("EC1", "receiver-latency crossover at 8 KiB (real-world thresholds: "
       "8–16 KiB); eager keeps the sender's guaranteed overlap ≥ 60% at every "
       "size")
def eager_wins_small_rendezvous_wins_large(a):
    by = a.crossover
    assert by[(1024.0, "eager")].latency < by[(1024.0, "rget")].latency
    assert by[(4194304.0, "rget")].latency < by[(4194304.0, "eager")].latency
    crossover = find_crossover(list(by.values()))
    assert crossover is not None and 1024.0 < crossover <= 4194304.0, crossover
    # 60 %: the table's floor; the lowest reads 94.5 % (1 KiB).
    assert all(p.sender_min_pct > 60.0 for (_n, proto), p in by.items()
               if proto == "eager")


@claim("EJ1", "±10–60% jitter moves timing-level metrics (receiver wait) but "
       "the overlap characterization is unchanged")
def jitter_moves_timing_not_the_characterization(a):
    def mean(key, jitter):
        return statistics.mean(key(p) for p in a.jitter[jitter])

    base = mean(lambda p: p.max_pct("sender"), 0.0)
    for jitter, points in a.jitter.items():
        for p in points:
            # 1e-9 / 1e-6: float rounding of a percentage of a sum.
            assert (0.0 <= p.min_pct("sender") <= p.max_pct("sender") + 1e-9
                    <= 100.0 + 1e-6), jitter
        # 10 points: the legacy bound on "unchanged"; every level reads 92.3 %.
        assert abs(mean(lambda p: p.max_pct("sender"), jitter) - base) < 10.0
    assert (mean(lambda p: p.wait_time("receiver"), 0.6)
            != mean(lambda p: p.wait_time("receiver"), 0.0))


@claim("ER1", "all 16 cells complete (watchdog-guarded, resilience armed for "
       "packet faults) with report invariants intact")
def every_fault_cell_completes_intact(a):
    cells = a.fault_matrix
    assert len(cells) == 16
    assert [(c.fault, c.protocol, c.status, c.violations) for c in cells
            if not c.passed] == []


@claim("ES1", "per-rank events (229), drains, overhead (0.17%), and measured "
       "overlap exactly constant from 2 to 32 ranks")
def instrumentation_footprint_is_rank_invariant(a):
    events = [p.events_per_rank for p in a.scaling]
    maxes = [p.max_pct for p in a.scaling]
    # 1.1 and 10 points: the legacy bounds on "flat"; both read constant.
    assert max(events) / min(events) < 1.1, events
    assert max(maxes) - min(maxes) < 10.0, maxes
    for p in a.scaling:
        assert p.overhead_pct < 0.9, p  # the paper's Fig. 20 bound


def _short_share(bins, attr: str) -> float:
    """Share of ``attr`` in bins whose upper edge is at most 16 KiB."""
    values = [getattr(b, attr) for b in bins.bins]
    upper = [*bins.edges, math.inf]
    return sum(v for v, edge in zip(values, upper) if edge <= 16 * KiB) / sum(values)


@claim("APP", "BT's bytes are long messages, CG's count is mostly short, LU "
       "mixes both, FT and IS carry their bytes in long collectives")
def size_distributions_match_the_paper_text(a):
    bins = a.size_bins
    # BT: "long messages constitute the majority of communication" (0.25:
    # the legacy bound; it reads 0.00).
    assert _short_share(bins["bt"], "bytes") < 0.25
    # CG: "a larger proportion of short messages", by count.
    assert _short_share(bins["cg"], "count") > 0.5
    # LU: "a mix of short and long messages".
    assert 0.0 < _short_share(bins["lu"], "bytes") < 1.0
    # FT / IS: long collective transfers carry the bytes (0.05 / 0.3: the
    # legacy bounds; both read 0.00).
    assert _short_share(bins["ft"], "bytes") < 0.05
    assert _short_share(bins["is"], "bytes") < 0.3


#: Ablations Ids whose finding a tier-1 test already asserts, with that
#: test's ``file::name``.
HELD_BY: "dict[str, str]" = {
    "EA11": "tests/test_report_pins.py::test_report_is_pinned",
    # The row's SP A.4 example; its micro scenarios are the same class's
    # test_microbenchmark_bounds_hold.
    "EV1": "tests/test_validation.py::TestBoundsBracketTruth"
           "::test_sp_application_bounds_hold",
}


@pytest.mark.parametrize("row", [
    pytest.param(row, id=(f"fig{row.key:02d}" if isinstance(row.key, int)
                          else row.key) + f"-{row.check.__name__}", marks=(
        pytest.mark.xfail(strict=True, reason=row.deviation)
        if row.deviation else ()))
    for row in CLAIMS
])
def test_claim(row: Claim, request: pytest.FixtureRequest) -> None:
    row.check(request.getfixturevalue(
        "figures" if isinstance(row.key, int) else "ablations"))


def _documented_figures() -> "set[int]":
    """Figure numbers in the first column of EXPERIMENTS.md's tables."""
    found = set()
    for cell in re.findall(r"^\| *(\d+(?:/\d+)*) *\|", EXPERIMENTS.read_text(
            encoding="utf-8"), flags=re.MULTILINE):
        found.update(int(n) for n in cell.split("/"))
    return found


def _ablation_rows() -> "dict[str, str]":
    """EXPERIMENTS.md's Ablations table: each row's text by its Id."""
    text = EXPERIMENTS.read_text(encoding="utf-8")
    section = text.split("\n## Ablations", 1)[1].split("\n## ", 1)[0]
    return {m[1]: m[0] for m in re.finditer(r"^\| *([A-Z]+\d*) *\|.*$",
                                             section, flags=re.MULTILINE)}


def test_every_documented_figure_has_a_claim() -> None:
    documented = _documented_figures()
    assert documented == set(range(3, 21))
    assert documented <= {row.key for row in CLAIMS}


def test_every_claim_names_a_documented_figure() -> None:
    assert ({row.key for row in CLAIMS if isinstance(row.key, int)}
            <= _documented_figures())


def test_every_ablation_has_a_claim_or_a_holder() -> None:
    claimed = {row.key for row in CLAIMS if isinstance(row.key, str)}
    assert not claimed & HELD_BY.keys()
    assert _ablation_rows().keys() == claimed | HELD_BY.keys()
    for ident, name in HELD_BY.items():
        path, *attrs = name.split("::")
        module = importlib.import_module(path.removesuffix(".py").replace("/", "."))
        assert callable(functools.reduce(getattr, attrs, module)), ident


def test_every_ablation_claim_quotes_its_table_row() -> None:
    rows = _ablation_rows()
    for row in CLAIMS:
        if isinstance(row.key, str):
            assert row.quote in rows[row.key], (row.key, row.quote)
