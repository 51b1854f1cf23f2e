"""Framework self-observability: metrics registry, exposition, dashboards.

The measurement framework instruments *applications*; this package
instruments the framework.  A :class:`MetricsRegistry` (explicitly passed
down -- no globals) collects queue, processor, engine, and sweep health
metrics at near-zero hot-path cost; :mod:`repro.metrics.openmetrics`
renders them as OpenMetrics text; :mod:`repro.metrics.progress`
publishes live sweep state for ``repro.tools.watch``.

See ``docs/metrics.md`` for the metric catalog.
"""

import repro

__getattr__, __dir__ = repro._lazy_surface(__name__, {
    "openmetrics": ("render_openmetrics",),
    "progress": ("SweepProgress", "load_status"),
    "registry": (
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsError",
        "MetricsRegistry",
    ),
})
