"""Windowed collection: time-resolved overlap measures on a bounded ring.

The paper's processor reports one aggregate per process for the whole run.
This module adds a *time-resolved* view without giving up the paper's
bounded-memory, no-tracing ethos: :class:`WindowedProcessor` extends
:class:`~repro.core.processor.DataProcessor` with fixed simulated-time
windows and snapshots the cumulative :class:`OverlapMeasures` totals at
every window boundary.

Design rules (see ``docs/telemetry.md``):

* **Cumulative snapshots, not per-window accumulators.**  A window stores
  the cumulative totals *at its close*; its per-window delta is derived by
  subtraction on demand.  Because the last window's snapshot is literally
  the processor's final totals, the reconstruction invariant

      sum of window deltas  ==  whole-run totals

  holds to **exact float equality** (the telescoping sum cancels by
  construction), and coalescing adjacent windows is lossless (drop the
  intermediate snapshot).
* **Event-quantized attribution.**  An interval or transfer lands wholly
  in the window containing the event that closes it; nothing is split at
  boundaries.  This is what makes the invariant exact, and it means a
  drained batch only has to be *cut* at the grid boundaries (a bisect on
  its time column): every slice runs through the base processor's own
  event loop, so windows cost nothing per event.
* **Bounded ring.**  When the window count reaches ``max_windows``,
  adjacent pairs are merged and the window width doubles -- constant
  memory for any run length, like an adaptive histogram.

Windows are anchored at simulated time zero: window ``i`` of a series with
width ``w`` spans ``(i*w, (i+1)*w]``.  All ranks of a run therefore share
grid alignment, which is what lets the cluster rollup re-bucket series
whose widths diverged through coalescing (widths are always
``base_width * 2**k``).
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import typing

from repro.core.events import RESET, EventColumns
from repro.core.measures import DEFAULT_BIN_EDGES
from repro.core.processor import DataProcessor, InstrumentationError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.xfer_table import XferTable

#: The five whole-run measures that get a time-resolved series, in the
#: order they appear in each window's cumulative snapshot.
WINDOW_METRICS: tuple[str, ...] = (
    "data_transfer_time",
    "min_overlap_time",
    "max_overlap_time",
    "computation_time",
    "communication_call_time",
)

#: Default window width (simulated seconds).  Deliberately fine: the
#: coalescing ring widens it automatically on long runs.
DEFAULT_WINDOW_WIDTH = 1e-4

#: Default ring capacity (must be even; pairs merge on overflow).
DEFAULT_MAX_WINDOWS = 256

SERIES_FORMAT_VERSION = 1


class Window(typing.NamedTuple):
    """Cumulative state snapshot at one window close.

    ``cum`` holds the five :data:`WINDOW_METRICS` values; ``transfers`` is
    the cumulative resolved-transfer count; ``active`` and
    ``pending_xfer_time`` describe transfers still in flight at the close
    (count, and the sum of their a-priori transfer times) -- used by the
    windowed ground-truth bound check.
    """

    cum: tuple[float, float, float, float, float]
    transfers: int
    active: int
    pending_xfer_time: float


_ZERO_CUM = (0.0, 0.0, 0.0, 0.0, 0.0)


class WindowSeries:
    """An immutable per-rank time series of windowed overlap measures."""

    def __init__(
        self,
        width: float,
        windows: typing.Sequence[Window],
        rank: int = -1,
        label: str = "",
        base_width: float | None = None,
    ) -> None:
        if width <= 0:
            raise ValueError(f"window width must be positive, got {width}")
        self.width = float(width)
        self.windows = list(windows)
        self.rank = rank
        self.label = label
        #: The pre-coalescing width the series was collected with.
        self.base_width = float(base_width) if base_width else self.width

    def __len__(self) -> int:
        return len(self.windows)

    # -- geometry -----------------------------------------------------------
    def start(self, i: int) -> float:
        """Window ``i`` spans ``(start(i), end(i)]`` in simulated seconds."""
        return i * self.width

    def end(self, i: int) -> float:
        return (i + 1) * self.width

    # -- values -------------------------------------------------------------
    def totals(self) -> dict[str, float]:
        """Whole-run totals reconstructed from the windows.

        Bit-identical to the finalized processor's ``total`` fields: the
        last window's snapshot *is* those floats.
        """
        cum = self.windows[-1].cum if self.windows else _ZERO_CUM
        return dict(zip(WINDOW_METRICS, cum))

    def deltas(self) -> list[dict[str, float]]:
        """All windows as rows: start/end, metric deltas, transfer delta."""
        rows = []
        prev_cum: tuple[float, ...] = _ZERO_CUM
        prev_transfers = 0
        for i, win in enumerate(self.windows):
            row: dict[str, float] = {"start": self.start(i), "end": self.end(i)}
            for j, m in enumerate(WINDOW_METRICS):
                row[m] = win.cum[j] - prev_cum[j]
            row["transfers"] = win.transfers - prev_transfers
            rows.append(row)
            prev_cum = win.cum
            prev_transfers = win.transfers
        return rows

    # -- transforms ---------------------------------------------------------
    def resample(self, new_width: float) -> "WindowSeries":
        """Coarsen onto a wider grid (an integer multiple of ``width``).

        Lossless for cumulative state: each coarse window keeps the last
        fine snapshot it covers, so :meth:`totals` is unchanged bit-for-bit.
        """
        factor = round(new_width / self.width)
        if factor < 1 or abs(factor * self.width - new_width) > 1e-12 * new_width:
            raise ValueError(
                f"new width {new_width} is not an integer multiple of {self.width}"
            )
        if factor == 1:
            return WindowSeries(self.width, self.windows, self.rank, self.label,
                                base_width=self.base_width)
        merged = [
            self.windows[min(i + factor, len(self.windows)) - 1]
            for i in range(0, len(self.windows), factor)
        ]
        return WindowSeries(new_width, merged, self.rank, self.label,
                            base_width=self.base_width)

    # -- persistence --------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return {
            "format_version": SERIES_FORMAT_VERSION,
            "rank": self.rank,
            "label": self.label,
            "width": self.width,
            "base_width": self.base_width,
            "metrics": list(WINDOW_METRICS),
            "windows": [
                {
                    "cum": list(w.cum),
                    "transfers": w.transfers,
                    "active": w.active,
                    "pending_xfer_time": w.pending_xfer_time,
                }
                for w in self.windows
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "WindowSeries":
        if data.get("format_version") != SERIES_FORMAT_VERSION:
            raise ValueError(
                f"unsupported series format {data.get('format_version')!r}"
            )
        if list(data.get("metrics", [])) != list(WINDOW_METRICS):
            raise ValueError(f"unexpected metric set {data.get('metrics')!r}")
        windows = [
            Window(
                cum=tuple(float(v) for v in w["cum"]),  # type: ignore[index]
                transfers=int(w["transfers"]),  # type: ignore[index]
                active=int(w["active"]),  # type: ignore[index]
                pending_xfer_time=float(w["pending_xfer_time"]),  # type: ignore[index]
            )
            for w in typing.cast("list[dict]", data["windows"])
        ]
        return cls(
            width=float(data["width"]),  # type: ignore[arg-type]
            windows=windows,
            rank=int(data["rank"]),  # type: ignore[arg-type]
            label=str(data["label"]),
            base_width=float(data.get("base_width") or data["width"]),  # type: ignore[arg-type]
        )

    def save(self, path: "str | os.PathLike") -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    @classmethod
    def load(cls, path: "str | os.PathLike") -> "WindowSeries":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def __repr__(self) -> str:
        return (
            f"<WindowSeries rank={self.rank} n={len(self.windows)} "
            f"width={self.width:.3g}s>"
        )


class WindowedProcessor(DataProcessor):
    """A :class:`DataProcessor` that also snapshots fixed-time windows.

    The per-event path is the base class's; a batch is cut where simulated
    time crosses a grid boundary and a window closes between the slices.
    Memory is bounded by ``max_windows`` regardless of run length (the
    ring coalesces).
    """

    def __init__(
        self,
        xfer_table: "XferTable",
        bin_edges: typing.Sequence[float] = DEFAULT_BIN_EDGES,
        *,
        window_width: float = DEFAULT_WINDOW_WIDTH,
        max_windows: int = DEFAULT_MAX_WINDOWS,
    ) -> None:
        super().__init__(xfer_table, bin_edges)
        if window_width <= 0:
            raise ValueError(f"window_width must be positive, got {window_width}")
        if max_windows < 4:
            raise ValueError(f"max_windows must be >= 4, got {max_windows}")
        self.base_width = float(window_width)
        self._width = float(window_width)
        # Pairs merge on overflow, so keep the capacity even.
        self._max_windows = max_windows & ~1
        self._windows: list[Window] = []
        self._boundary = self._width
        #: Number of ring-coalescing passes performed (diagnostics).
        self.coalesce_count = 0

    # -- window machinery ---------------------------------------------------
    @property
    def window_width(self) -> float:
        """Current window width (grows by doubling when the ring fills)."""
        return self._width

    def _close_window(self) -> None:
        m = self.total
        pending = 0.0
        if self._active:
            time_for = self.xfer_table.time_for
            for xfer in self._active.values():
                pending += time_for(xfer.nbytes)
        self._windows.append(
            Window(
                cum=(
                    m.data_transfer_time,
                    m.min_overlap_time,
                    m.max_overlap_time,
                    m.computation_time,
                    m.communication_call_time,
                ),
                transfers=m.transfer_count,
                active=len(self._active),
                pending_xfer_time=pending,
            )
        )
        if len(self._windows) >= self._max_windows:
            self._coalesce()
        self._boundary = (len(self._windows) + 1) * self._width

    def _coalesce(self) -> None:
        """Halve the ring by merging adjacent pairs; double the width.

        Lossless: the cumulative snapshot of a merged pair is the second
        member's snapshot (dropping the intermediate one).
        """
        wins = self._windows
        self._windows = [wins[i + 1] for i in range(0, len(wins) - 1, 2)]
        self._width *= 2.0
        self.coalesce_count += 1

    def process(self, batch: "EventColumns | typing.Iterable") -> None:
        """Digest a batch, closing every grid boundary an event crosses.

        A window closes strictly before the first event later than its
        boundary, so the interval ending at that event lands in the window
        containing it.  ``RESET`` markers close nothing (the next real
        event does).  The time column is non-decreasing: stamps come from
        one monotone clock, and the event loop rejects a stream that is not.
        """
        if self._finalized:
            raise InstrumentationError("processor already finalized")
        if not isinstance(batch, EventColumns):
            records, batch = batch, EventColumns()
            for record in records:
                batch.append(*record)
        times, kinds = batch.time, batch.kind
        rows = batch.rows()
        n = len(times)
        done = 0
        while done < n:
            cut = bisect.bisect_right(times, self._boundary, done)
            while cut < n and kinds[cut] == RESET:
                cut += 1
            self._digest(itertools.islice(rows, cut - done))
            if cut < n:
                self._close_windows_before(times[cut])
            done = cut

    def _close_windows_before(self, t: float) -> None:
        while t > self._boundary:
            self._close_window()

    def finalize(self, end_time: float | None = None) -> None:
        already = self._finalized
        if not already and end_time is not None:
            self._close_windows_before(end_time)
        super().finalize(end_time)
        if not already and self._last_time is not None:
            # Close the trailing (possibly partial) window so the last
            # snapshot equals the final totals -- the exactness invariant.
            self._close_window()

    def series(self, rank: int = -1, label: str = "") -> WindowSeries:
        """Snapshot the collected windows as an immutable series."""
        return WindowSeries(
            self._width, list(self._windows), rank=rank, label=label,
            base_width=self.base_width,
        )
