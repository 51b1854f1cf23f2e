"""Rendering experiment records as the paper's tables and figure series."""

import repro

__getattr__, __dir__ = repro._lazy_surface(__name__, {
    "tables": (
        "micro_series_rows",
        "render_micro_series",
        "render_nas_char",
        "render_overhead",
        "render_size_breakdown",
        "render_sp_tuning",
    ),
    "textplot": ("ascii_plot", "timeline_plot"),
    "traffic": ("render_traffic_matrix", "traffic_matrix"),
})
