"""Overlap-analysis-as-a-service: the paper tool behind one front door.

PRs 1-6 built the backends -- a content-hash result cache, a metrics
registry with OpenMetrics exposition, fault plans, crash-isolated sweep
workers, a sharded parallel-DES engine.  This package is the long-running
front door over all of them: an asyncio HTTP/JSON job server with
multi-tenant queueing, admission control, single-flight dedupe, a
bounded result cache, and streamed results.

Start it with ``python -m repro.tools.serve``; see ``docs/service.md``.
"""

import repro

__getattr__, __dir__ = repro._lazy_surface(__name__, {
    "client": ("Response", "ServiceClient", "ServiceError"),
    "core": ("Job", "OverlapService"),
    "jobs": (
        "Submission",
        "SubmissionError",
        "job_content_key",
        "parse_submission",
    ),
    "queue": ("Admission", "QuotaConfig", "TenantQueue"),
    "server": ("ServerThread", "ServiceHTTPServer"),
})
