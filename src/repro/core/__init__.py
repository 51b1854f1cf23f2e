"""The overlap instrumentation framework (the paper's primary contribution).

This package implements the CLUSTER 2006 measurement framework exactly as
described in Section 2 of the paper:

* four event kinds -- ``CALL_ENTER`` / ``CALL_EXIT`` demarcating library
  calls, ``XFER_BEGIN`` / ``XFER_END`` approximating physical data movement
  (:mod:`repro.core.events`);
* a fixed-size, in-memory circular event queue drained on-the-fly, with no
  tracing (:mod:`repro.core.equeue`, paper Fig. 2);
* the three-case bounding algorithm deriving minimum and maximum overlapped
  transfer time per data-transfer operation (:mod:`repro.core.processor`);
* an a-priori transfer-time table, measured by a ping-pong utility and
  loaded from disk at init time (:mod:`repro.core.xfer_table`, the paper's
  ``perf_main`` step);
* per-process measures with message-size-range breakdowns and
  application-controlled monitoring sections (:mod:`repro.core.measures`,
  :mod:`repro.core.monitor`);
* per-process output reports and cross-process aggregation
  (:mod:`repro.core.report`).

The framework is driven purely by time-stamped event streams; it does not
know whether timestamps come from a wall clock inside a real library or from
the simulation clock of :mod:`repro.mpisim`.
"""

import repro

__getattr__, __dir__ = repro._lazy_surface(__name__, {
    "diff": ("MeasureDelta", "diff_reports", "render_diff"),
    "events": ("EventColumns", "EventKind", "TimedEvent"),
    "equeue": ("CircularEventQueue",),
    "measures": ("OverlapMeasures", "SizeBins"),
    "monitor": ("Monitor",),
    "processor": ("DataProcessor",),
    "report": ("OverlapReport", "aggregate_reports"),
    "trace": ("TraceSink", "replay_overlap"),
    "xfer_table": ("XferTable",),
})
