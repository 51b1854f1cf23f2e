"""Rank launcher: runs N simulated processes and collects their reports."""

import repro

__getattr__, __dir__ = repro._lazy_surface(__name__, {
    "launcher": ("RunResult", "run_app"),
    "world": ("RankContext",),
})
