"""Run-time collection glue: telemetry config, per-rank capture, files.

``run_app(..., telemetry=TelemetryConfig())`` swaps each monitor's
processor for a :class:`~repro.telemetry.windows.WindowedProcessor` and
(optionally) attaches a :class:`~repro.core.trace.TraceSink` per rank
(fed the queue's columns once per drain) for trace export.  The result
carries a :class:`TelemetryResult`, whose :func:`write_run_telemetry`
emits the full on-disk layout::

    out/
      telemetry.rank0.json   # per-rank report + window series
      ...
      trace.json             # Perfetto / chrome://tracing
      rollup.json            # cluster-wide totals, percentiles, imbalance
"""

from __future__ import annotations

import dataclasses
import functools
import os
import pathlib
import typing

from repro.core.events import NameRegistry, TimedEvent
from repro.telemetry.perfetto import ChromeTraceExporter
from repro.telemetry.rollup import rollup_files, save_rank_telemetry
from repro.telemetry.windows import (
    DEFAULT_MAX_WINDOWS,
    DEFAULT_WINDOW_WIDTH,
    WindowSeries,
)

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.trace import TraceSink
    from repro.core.xfer_table import XferTable
    from repro.runtime.launcher import RunResult


@dataclasses.dataclass(frozen=True)
class TelemetryConfig:
    """Knobs for time-resolved collection during a simulated run."""

    #: Initial window width (simulated seconds); the bounded ring doubles
    #: it automatically on long runs.
    window_width: float = DEFAULT_WINDOW_WIDTH
    #: Ring capacity (windows kept per rank; even).
    max_windows: int = DEFAULT_MAX_WINDOWS
    #: Also record each rank's raw event stream for Perfetto export.
    collect_trace: bool = True

    def __post_init__(self) -> None:
        if self.window_width <= 0:
            raise ValueError("window_width must be positive")
        if self.max_windows < 4:
            raise ValueError("max_windows must be >= 4")


class RankTelemetry:
    """What telemetry collected for one rank."""

    def __init__(
        self,
        rank: int,
        series: WindowSeries,
        sink: "TraceSink | None",
        names: NameRegistry,
    ) -> None:
        self.rank = rank
        self.series = series
        #: The rank's trace recorder (None when ``collect_trace`` was off);
        #: its columns are what was collected, 25 B per stamp.
        self.sink = sink
        self.names = names

    @functools.cached_property
    def events(self) -> "list[TimedEvent] | None":
        """Raw event stream as ``TimedEvent`` objects (None without a sink).

        Materialized on first read, then kept: a run that only wants the
        window series never pays for an object per stamp.
        """
        return self.sink.events if self.sink is not None else None


class TelemetryResult:
    """All ranks' telemetry plus what's needed to export it."""

    def __init__(
        self,
        per_rank: list[RankTelemetry],
        xfer_table: "XferTable",
        config: TelemetryConfig,
    ) -> None:
        self.per_rank = per_rank
        self.xfer_table = xfer_table
        self.config = config

    def series(self, rank: int = 0) -> WindowSeries:
        return self.per_rank[rank].series

    def build_trace(self, result: "RunResult") -> ChromeTraceExporter:
        """Assemble the Chrome/Perfetto trace for the whole job."""
        exporter = ChromeTraceExporter()
        for rt in self.per_rank:
            if rt.events is not None:
                exporter.add_rank_events(
                    rt.rank, rt.events, rt.names,
                    xfer_table=self.xfer_table,
                    label=rt.series.label,
                )
            exporter.add_window_counters(rt.rank, rt.series,
                                         label=rt.series.label)
        log = result.fabric.transfer_log
        if log:
            exporter.add_transfer_log(
                log, min_nbytes=result.fabric.params.control_packet_size
            )
        return exporter


def write_run_telemetry(
    result: "RunResult",
    out_dir: "str | os.PathLike",
    trace_name: str = "trace.json",
    rollup_name: str = "rollup.json",
) -> dict[str, list[pathlib.Path]]:
    """Emit the per-rank files, the Perfetto trace, and the cluster rollup.

    Returns the written paths keyed ``{"ranks": [...], "trace": [...],
    "rollup": [...]}``.  The rollup is produced by streaming the just-
    written rank files back (the same constant-memory path an offline
    aggregation of a real cluster would take).
    """
    telemetry = result.telemetry
    if telemetry is None:
        raise ValueError("run_app was not given a TelemetryConfig")
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rank_paths: list[pathlib.Path] = []
    for rt in telemetry.per_rank:
        report = result.reports[rt.rank]
        assert report is not None
        path = out / f"telemetry.rank{rt.rank}.json"
        save_rank_telemetry(path, report, rt.series)
        rank_paths.append(path)

    trace_path = out / trace_name
    telemetry.build_trace(result).save(trace_path)

    rollup_path = out / rollup_name
    rollup_files(rank_paths).save(rollup_path)

    return {"ranks": rank_paths, "trace": [trace_path], "rollup": [rollup_path]}
