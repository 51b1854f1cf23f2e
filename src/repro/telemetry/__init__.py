"""Time-resolved overlap telemetry: windows, trace export, cluster rollup.

Three cooperating pieces on top of the paper's bounded-memory pipeline:

* :mod:`repro.telemetry.windows` -- :class:`WindowedProcessor` snapshots
  the cumulative overlap measures on a bounded ring of fixed simulated-
  time windows; window sums reconstruct the whole-run totals to exact
  float equality;
* :mod:`repro.telemetry.perfetto` -- Chrome ``trace_event`` JSON export
  (calls, sections, transfers, ground-truth wire intervals, per-window
  counters) that opens directly in ``ui.perfetto.dev``;
* :mod:`repro.telemetry.rollup` -- constant-memory streaming merge of
  per-rank telemetry files into cluster totals, per-window cross-rank
  percentiles, and a rank-imbalance summary.

Entry points: ``run_app(..., telemetry=TelemetryConfig())`` and the
``python -m repro.tools.timeline`` CLI.  See ``docs/telemetry.md``.
"""

import repro

__getattr__, __dir__ = repro._lazy_surface(__name__, {
    "collect": (
        "RankTelemetry",
        "TelemetryConfig",
        "TelemetryResult",
        "write_run_telemetry",
    ),
    "perfetto": ("ChromeTraceExporter",),
    "rollup": (
        "ClusterRollup",
        "StreamStats",
        "load_rank_telemetry",
        "rollup_files",
        "save_rank_telemetry",
    ),
    "validate": (
        "WindowBoundCheck",
        "check_windowed_bounds",
        "render_windowed_validation",
    ),
    "windows": (
        "WINDOW_METRICS",
        "Window",
        "WindowSeries",
        "WindowedProcessor",
    ),
})
