"""End-to-end host-time span tracing (HTTP submit -> per-shard engine).

Public surface:

* :class:`Tracer` / :class:`Span` / :class:`SpanContext` /
  :class:`SpanRecord` -- the span recorder (``repro.tracing.span``);
* :func:`current_tracer` / :func:`set_current_tracer` / :class:`use_tracer`
  -- the ambient in-process propagation shim;
* :func:`build_trace` / :func:`save_trace` / :func:`flatten_payloads` /
  :func:`payload_spans` -- merge payload trees into one Perfetto JSON
  (``repro.tracing.merge``);
* :func:`explain_trace` / :func:`validate_trace` / :func:`render_explain`
  -- critical-path attribution (``repro.tracing.explain``), fronted by
  the ``repro.tools.explain`` CLI.
"""

import repro

__getattr__, __dir__ = repro._lazy_surface(__name__, {
    "explain": ("explain_trace", "render_explain", "validate_trace"),
    "merge": ("build_trace", "flatten_payloads", "save_trace"),
    "span": (
        "PAYLOAD_VERSION",
        "Span",
        "SpanContext",
        "SpanRecord",
        "Tracer",
        "current_tracer",
        "payload_spans",
        "set_current_tracer",
        "use_tracer",
    ),
})
