"""Per-process overlap measures and message-size-range breakdowns.

Section 2.2 defines five derived measures per process; Sec. 2.3 motivates a
breakdown of the non-overlapped time "as a function of message size
distribution, such as short versus long, or a more detailed size
distribution".  :class:`SizeBins` implements that breakdown with arbitrary
bin edges; :class:`OverlapMeasures` carries the five measures, per-transfer
case counts, and a bin table.
"""

from __future__ import annotations

import bisect
import typing

#: Default size-range edges (bytes): short / medium / long / huge.
DEFAULT_BIN_EDGES: tuple[float, ...] = (1024.0, 16384.0, 262144.0)

#: The paper's coarsest breakdown: "short versus long".
SHORT_LONG_EDGES: tuple[float, ...] = (16384.0,)

#: "a more detailed size distribution": power-of-four bins, 256 B..16 MiB.
DETAILED_EDGES: tuple[float, ...] = tuple(
    float(4**k) for k in range(4, 13)
)

#: The three bounding cases of Sec. 2.2.
CASE_SAME_CALL = 1
CASE_SPLIT_CALL = 2
CASE_ONE_EVENT = 3


class BinStats:
    """Accumulators for one message-size range."""

    __slots__ = ("count", "bytes", "xfer_time", "min_overlap", "max_overlap")

    def __init__(self) -> None:
        self.count = 0
        self.bytes = 0.0
        self.xfer_time = 0.0
        self.min_overlap = 0.0
        self.max_overlap = 0.0

    def add(self, nbytes: float, xfer_time: float, min_ov: float, max_ov: float) -> None:
        self.count += 1
        self.bytes += nbytes
        self.xfer_time += xfer_time
        self.min_overlap += min_ov
        self.max_overlap += max_ov

    def merge(self, other: "BinStats") -> None:
        self.count += other.count
        self.bytes += other.bytes
        self.xfer_time += other.xfer_time
        self.min_overlap += other.min_overlap
        self.max_overlap += other.max_overlap

    def to_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "bytes": self.bytes,
            "xfer_time": self.xfer_time,
            "min_overlap": self.min_overlap,
            "max_overlap": self.max_overlap,
        }

    @classmethod
    def from_dict(cls, data: dict[str, float]) -> "BinStats":
        stats = cls()
        stats.count = int(data["count"])
        stats.bytes = float(data["bytes"])
        stats.xfer_time = float(data["xfer_time"])
        stats.min_overlap = float(data["min_overlap"])
        stats.max_overlap = float(data["max_overlap"])
        return stats


class SizeBins:
    """Message-size histogram with overlap accumulators per range.

    ``edges`` are the interior boundaries; a message of ``n`` bytes falls in
    bin ``i`` such that ``edges[i-1] <= n < edges[i]`` (first bin is
    ``[0, edges[0])``, last is ``[edges[-1], inf)``).
    """

    def __init__(self, edges: typing.Sequence[float] = DEFAULT_BIN_EDGES) -> None:
        edges_list = [float(e) for e in edges]
        if any(b <= a for a, b in zip(edges_list, edges_list[1:])):
            raise ValueError("bin edges must be strictly increasing")
        if any(e <= 0 for e in edges_list):
            raise ValueError("bin edges must be positive")
        self.edges = tuple(edges_list)
        self.bins = [BinStats() for _ in range(len(edges_list) + 1)]

    def index_for(self, nbytes: float) -> int:
        """Bin index for a message size."""
        return bisect.bisect_right(self.edges, nbytes)

    def label_for(self, index: int) -> str:
        """Human-readable range label for a bin index."""
        lo = 0.0 if index == 0 else self.edges[index - 1]
        hi = self.edges[index] if index < len(self.edges) else float("inf")
        hi_txt = "inf" if hi == float("inf") else _fmt_bytes(hi)
        return f"[{_fmt_bytes(lo)}, {hi_txt})"

    def add(self, nbytes: float, xfer_time: float, min_ov: float, max_ov: float) -> None:
        self.bins[self.index_for(nbytes)].add(nbytes, xfer_time, min_ov, max_ov)

    def merge(self, other: "SizeBins") -> None:
        if self.edges != other.edges:
            raise ValueError("cannot merge SizeBins with different edges")
        for mine, theirs in zip(self.bins, other.bins):
            mine.merge(theirs)

    def to_dict(self) -> dict[str, object]:
        return {
            "edges": list(self.edges),
            "bins": [b.to_dict() for b in self.bins],
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "SizeBins":
        bins = cls(typing.cast("list[float]", data["edges"]))
        bins.bins = [
            BinStats.from_dict(typing.cast("dict[str, float]", b))
            for b in typing.cast("list[object]", data["bins"])
        ]
        return bins


def _fmt_bytes(n: float) -> str:
    if n >= 1024 * 1024 and n % (1024 * 1024) == 0:
        return f"{int(n) // (1024 * 1024)}MiB"
    if n >= 1024 and n % 1024 == 0:
        return f"{int(n) // 1024}KiB"
    return f"{int(n)}B"


class OverlapMeasures:
    """The paper's five per-process measures plus diagnostics.

    Attributes
    ----------
    data_transfer_time:
        Σ a-priori ``xfer_time`` over every data-transfer operation that
        moved user-message bytes sent or received by this process.
    min_overlap_time / max_overlap_time:
        Lower / upper bounds on overlapped transfer time.
    computation_time:
        Σ ``CALL_EXIT`` → next ``CALL_ENTER`` intervals (user computation).
    communication_call_time:
        Σ ``CALL_ENTER`` → ``CALL_EXIT`` intervals (in-library time).
    """

    __slots__ = (
        "data_transfer_time",
        "min_overlap_time",
        "max_overlap_time",
        "computation_time",
        "communication_call_time",
        "transfer_count",
        "case_counts",
        "bins",
    )

    def __init__(self, bin_edges: typing.Sequence[float] = DEFAULT_BIN_EDGES) -> None:
        self.data_transfer_time = 0.0
        self.min_overlap_time = 0.0
        self.max_overlap_time = 0.0
        self.computation_time = 0.0
        self.communication_call_time = 0.0
        self.transfer_count = 0
        #: transfers resolved under each bounding case {1: n, 2: n, 3: n}.
        self.case_counts = {CASE_SAME_CALL: 0, CASE_SPLIT_CALL: 0, CASE_ONE_EVENT: 0}
        self.bins = SizeBins(bin_edges)

    # -- accumulation -----------------------------------------------------
    def add_transfer(
        self,
        nbytes: float,
        xfer_time: float,
        min_ov: float,
        max_ov: float,
        case: int,
    ) -> None:
        """Record one resolved data-transfer operation."""
        if not 0.0 <= min_ov <= max_ov + 1e-15:
            raise ValueError(f"invalid bounds: min={min_ov} max={max_ov}")
        if max_ov > xfer_time + 1e-12:
            raise ValueError(f"max overlap {max_ov} exceeds xfer time {xfer_time}")
        self.data_transfer_time += xfer_time
        self.min_overlap_time += min_ov
        self.max_overlap_time += max_ov
        self.transfer_count += 1
        self.case_counts[case] += 1
        bins = self.bins  # SizeBins.add, without its three frames per transfer
        stats = bins.bins[bisect.bisect_right(bins.edges, nbytes)]
        stats.count += 1
        stats.bytes += nbytes
        stats.xfer_time += xfer_time
        stats.min_overlap += min_ov
        stats.max_overlap += max_ov

    def add_interval(self, duration: float, in_call: bool) -> None:
        """Attribute a wall interval to computation or communication call time."""
        if in_call:
            self.communication_call_time += duration
        else:
            self.computation_time += duration

    def merge(self, other: "OverlapMeasures") -> None:
        """Fold another process's (or section's) measures into this one."""
        self.data_transfer_time += other.data_transfer_time
        self.min_overlap_time += other.min_overlap_time
        self.max_overlap_time += other.max_overlap_time
        self.computation_time += other.computation_time
        self.communication_call_time += other.communication_call_time
        self.transfer_count += other.transfer_count
        for case, n in other.case_counts.items():
            self.case_counts[case] += n
        self.bins.merge(other.bins)

    # -- derived values (Sec. 2.3) ----------------------------------------
    @property
    def min_overlap_pct(self) -> float:
        """Minimum overlap as % of data transfer time (the figures' y-axis)."""
        if self.data_transfer_time <= 0:
            return 0.0
        return 100.0 * self.min_overlap_time / self.data_transfer_time

    @property
    def max_overlap_pct(self) -> float:
        """Maximum overlap as % of data transfer time."""
        if self.data_transfer_time <= 0:
            return 0.0
        return 100.0 * self.max_overlap_time / self.data_transfer_time

    @property
    def min_nonoverlapped_time(self) -> float:
        """data transfer time − max overlap: communication provably not hidden.

        Sec. 2.3: "an indicator of overall application performance loss".
        """
        return self.data_transfer_time - self.max_overlap_time

    @property
    def guaranteed_overlap_time(self) -> float:
        """The min bound: "a clear savings in execution time" (Sec. 2.3)."""
        return self.min_overlap_time

    # -- persistence --------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return {
            "data_transfer_time": self.data_transfer_time,
            "min_overlap_time": self.min_overlap_time,
            "max_overlap_time": self.max_overlap_time,
            "computation_time": self.computation_time,
            "communication_call_time": self.communication_call_time,
            "transfer_count": self.transfer_count,
            "case_counts": {str(k): v for k, v in self.case_counts.items()},
            "bins": self.bins.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "OverlapMeasures":
        meas = cls.__new__(cls)
        meas.data_transfer_time = float(data["data_transfer_time"])  # type: ignore[arg-type]
        meas.min_overlap_time = float(data["min_overlap_time"])  # type: ignore[arg-type]
        meas.max_overlap_time = float(data["max_overlap_time"])  # type: ignore[arg-type]
        meas.computation_time = float(data["computation_time"])  # type: ignore[arg-type]
        meas.communication_call_time = float(data["communication_call_time"])  # type: ignore[arg-type]
        meas.transfer_count = int(data["transfer_count"])  # type: ignore[arg-type]
        raw_cases = typing.cast("dict[str, int]", data["case_counts"])
        meas.case_counts = {int(k): int(v) for k, v in raw_cases.items()}
        meas.bins = SizeBins.from_dict(typing.cast("dict[str, object]", data["bins"]))
        return meas

    def __repr__(self) -> str:
        return (
            f"<OverlapMeasures xfer={self.data_transfer_time:.3g}s "
            f"ov=[{self.min_overlap_pct:.1f}%, {self.max_overlap_pct:.1f}%] "
            f"comp={self.computation_time:.3g}s "
            f"call={self.communication_call_time:.3g}s "
            f"n={self.transfer_count}>"
        )
