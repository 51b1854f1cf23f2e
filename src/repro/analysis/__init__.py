"""Rendering experiment records as the paper's tables and figure series."""

import typing

import repro

if typing.TYPE_CHECKING:
    from repro.analysis.interpret import Interpretation, interpret, render_interpretation
    from repro.analysis.tables import (
        micro_series_rows,
        render_micro_series,
        render_nas_char,
        render_overhead,
        render_size_breakdown,
        render_sp_tuning,
    )
    from repro.analysis.textplot import ascii_plot, timeline_plot
    from repro.analysis.traffic import (
        message_counts,
        modeled_time_matrix,
        render_traffic_matrix,
        traffic_matrix,
    )

__all__ = [
    "Interpretation",
    "ascii_plot",
    "interpret",
    "message_counts",
    "modeled_time_matrix",
    "render_interpretation",
    "render_traffic_matrix",
    "traffic_matrix",
    "micro_series_rows",
    "render_micro_series",
    "render_nas_char",
    "render_overhead",
    "render_size_breakdown",
    "render_sp_tuning",
    "timeline_plot",
]

__getattr__, __dir__ = repro._lazy_surface(__name__, {
    "interpret": ("Interpretation", "interpret", "render_interpretation"),
    "tables": (
        "micro_series_rows",
        "render_micro_series",
        "render_nas_char",
        "render_overhead",
        "render_size_breakdown",
        "render_sp_tuning",
    ),
    "textplot": ("ascii_plot", "timeline_plot"),
    "traffic": (
        "message_counts",
        "modeled_time_matrix",
        "render_traffic_matrix",
        "traffic_matrix",
    ),
})
