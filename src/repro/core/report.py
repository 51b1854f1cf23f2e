"""Per-process output reports and cross-process aggregation.

"When the application terminates, an output file is generated for each
process, with information about overlap achieved by that process.  The
reported information only characterizes the local process communication
activity." (paper Sec. 2.4).  Reports serialize to JSON; aggregation across
ranks is a post-processing step, never interprocess communication.
"""

from __future__ import annotations

import json
import os
import typing

from repro.core.events import NameRegistry
from repro.core.measures import OverlapMeasures

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.processor import DataProcessor

FORMAT_VERSION = 1


class OverlapReport:
    """Everything one process's monitor learned about its own overlap."""

    def __init__(
        self,
        rank: int,
        label: str,
        wall_time: float,
        event_count: int,
        total: OverlapMeasures,
        sections: dict[str, OverlapMeasures],
        call_stats: dict[str, tuple[int, float]],
    ) -> None:
        self.rank = rank
        self.label = label
        #: Run duration as seen by the monitor (finalize time - init time).
        self.wall_time = wall_time
        self.event_count = event_count
        self.total = total
        self.sections = sections
        #: call name -> (invocations, cumulative in-call seconds).
        self.call_stats = call_stats

    @classmethod
    def from_processor(
        cls,
        processor: "DataProcessor",
        names: NameRegistry,
        rank: int,
        label: str,
        wall_time: float,
        event_count: int,
    ) -> "OverlapReport":
        sections = {
            names.name_of(ident): meas for ident, meas in processor.sections.items()
        }
        call_stats = {
            names.name_of(ident): (st.count, st.total_time)
            for ident, st in processor.call_stats.items()
        }
        return cls(
            rank=rank,
            label=label,
            wall_time=wall_time,
            event_count=event_count,
            total=processor.total,
            sections=sections,
            call_stats=call_stats,
        )

    # -- aggregation ---------------------------------------------------------
    def merge(self, other: "OverlapReport") -> "OverlapReport":
        """Fold another process's report into this one (cluster rollup).

        Measures, sections, and call stats accumulate via
        :meth:`OverlapMeasures.merge` (which enforces matching
        :class:`~repro.core.measures.SizeBins` edges); ``wall_time``
        becomes the slowest rank's, ``event_count`` the sum.  ``rank`` and
        ``label`` keep ``self``'s values -- a merged report describes the
        job, not one process.  Returns ``self`` for chaining.
        """
        self.total.merge(other.total)
        for name, meas in other.sections.items():
            mine = self.sections.get(name)
            if mine is None:
                # Deep copy so later merges never mutate ``other``'s data.
                self.sections[name] = OverlapMeasures.from_dict(meas.to_dict())
            else:
                mine.merge(meas)
        for name, (count, total) in other.call_stats.items():
            c0, t0 = self.call_stats.get(name, (0, 0.0))
            self.call_stats[name] = (c0 + count, t0 + total)
        self.wall_time = max(self.wall_time, other.wall_time)
        self.event_count += other.event_count
        return self

    def __iadd__(self, other: "OverlapReport") -> "OverlapReport":
        return self.merge(other)

    # -- derived ------------------------------------------------------------
    def mean_call_time(self, name: str) -> float:
        """Average duration of one library call (e.g. ``MPI_Wait``)."""
        count, total = self.call_stats.get(name, (0, 0.0))
        return total / count if count else 0.0

    @property
    def mpi_time(self) -> float:
        """Total in-library time (the paper's "overall MPI time", Fig. 18)."""
        return self.total.communication_call_time

    # -- persistence ---------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return {
            "format_version": FORMAT_VERSION,
            "rank": self.rank,
            "label": self.label,
            "wall_time": self.wall_time,
            "event_count": self.event_count,
            "total": self.total.to_dict(),
            "sections": {k: v.to_dict() for k, v in self.sections.items()},
            "call_stats": {k: list(v) for k, v in self.call_stats.items()},
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "OverlapReport":
        if data.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported report format {data.get('format_version')!r}"
            )
        return cls(
            rank=int(data["rank"]),  # type: ignore[arg-type]
            label=str(data["label"]),
            wall_time=float(data["wall_time"]),  # type: ignore[arg-type]
            event_count=int(data["event_count"]),  # type: ignore[arg-type]
            total=OverlapMeasures.from_dict(
                typing.cast("dict[str, object]", data["total"])
            ),
            sections={
                k: OverlapMeasures.from_dict(typing.cast("dict[str, object]", v))
                for k, v in typing.cast(
                    "dict[str, object]", data["sections"]
                ).items()
            },
            call_stats={
                k: (int(v[0]), float(v[1]))
                for k, v in typing.cast(
                    "dict[str, list[float]]", data["call_stats"]
                ).items()
            },
        )

    def save(self, path: str | os.PathLike) -> None:
        """Write the per-process output file."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "OverlapReport":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    # -- rendering -------------------------------------------------------------
    def render_text(self) -> str:
        """Human-readable summary, roughly the paper's output-file content."""
        m = self.total
        lines = [
            f"overlap report: rank {self.rank}"
            + (f" ({self.label})" if self.label else ""),
            f"  wall time                  {self.wall_time:.6f} s",
            f"  data transfer time         {m.data_transfer_time:.6f} s",
            f"  min overlapped xfer time   {m.min_overlap_time:.6f} s "
            f"({m.min_overlap_pct:.1f}%)",
            f"  max overlapped xfer time   {m.max_overlap_time:.6f} s "
            f"({m.max_overlap_pct:.1f}%)",
            f"  user computation time      {m.computation_time:.6f} s",
            f"  communication call time    {m.communication_call_time:.6f} s",
            f"  transfers                  {m.transfer_count} "
            f"(case1={m.case_counts[1]} case2={m.case_counts[2]} "
            f"case3={m.case_counts[3]})",
        ]
        if any(b.count for b in m.bins.bins):
            lines.append("  by message size:")
            for i, b in enumerate(m.bins.bins):
                if not b.count:
                    continue
                pct_min = 100.0 * b.min_overlap / b.xfer_time if b.xfer_time else 0.0
                pct_max = 100.0 * b.max_overlap / b.xfer_time if b.xfer_time else 0.0
                lines.append(
                    f"    {m.bins.label_for(i):>18} n={b.count:<7} "
                    f"xfer={b.xfer_time:.6f}s ov=[{pct_min:.1f}%, {pct_max:.1f}%]"
                )
        for name, meas in sorted(self.sections.items()):
            lines.append(
                f"  section {name!r}: xfer={meas.data_transfer_time:.6f}s "
                f"ov=[{meas.min_overlap_pct:.1f}%, {meas.max_overlap_pct:.1f}%]"
            )
        return "\n".join(lines)


def aggregate_reports(reports: typing.Sequence[OverlapReport]) -> OverlapMeasures:
    """Merge per-process totals into one job-wide :class:`OverlapMeasures`."""
    if not reports:
        raise ValueError("no reports to aggregate")
    edges = reports[0].total.bins.edges
    merged = OverlapMeasures(edges)
    for rep in reports:
        merged.merge(rep.total)
    return merged
