"""OpenMetrics v1 text exposition of a :class:`MetricsRegistry`.

:func:`render_openmetrics` writes the standard scrape format -- ``# TYPE``
/ ``# HELP`` metadata, ``_total`` counter samples, cumulative
``_bucket{le=...}`` histogram samples, terminated by ``# EOF``.  Gauge
high-water marks and per-bucket counts, which the text format cannot
carry, are in :meth:`~repro.metrics.registry.MetricsRegistry.snapshot`.
"""

from __future__ import annotations

import typing

from repro.metrics.registry import Histogram, MetricsRegistry

#: Suffix appended to counter sample names, per the OpenMetrics spec.
_COUNTER_SUFFIX = "_total"


def _fmt(value: float) -> str:
    """Exact float formatting: ``repr`` round-trips every finite float."""
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _labels_text(labels: typing.Sequence[tuple[str, str]],
                 extra: "tuple[str, str] | None" = None) -> str:
    items = list(labels)
    if extra is not None:
        items.append(extra)
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in items)
    return "{" + body + "}"


def render_openmetrics(registry: MetricsRegistry) -> str:
    """Render the registry as OpenMetrics v1 text (ending in ``# EOF``)."""
    lines: list[str] = []
    for family in registry.collect():
        lines.append(f"# TYPE {family.name} {family.kind}")
        if family.help:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        for labels, value in family.samples:
            if isinstance(value, Histogram):
                cum = 0
                for bound, n in zip(value.bounds, value.counts):
                    cum += n
                    lines.append(
                        f"{family.name}_bucket"
                        f"{_labels_text(labels, ('le', _fmt(bound)))} {cum}"
                    )
                cum += value.counts[-1]
                lines.append(
                    f"{family.name}_bucket"
                    f"{_labels_text(labels, ('le', '+Inf'))} {cum}"
                )
                lines.append(
                    f"{family.name}_count{_labels_text(labels)} {value.count}"
                )
                lines.append(
                    f"{family.name}_sum{_labels_text(labels)} {_fmt(value.sum)}"
                )
            else:
                suffix = _COUNTER_SUFFIX if family.kind == "counter" else ""
                lines.append(
                    f"{family.name}{suffix}{_labels_text(labels)} {_fmt(value)}"
                )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"
