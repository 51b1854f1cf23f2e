"""Rank launcher: runs N simulated processes and collects their reports."""

import typing

import repro

if typing.TYPE_CHECKING:
    from repro.runtime.launcher import RunResult, run_app
    from repro.runtime.world import RankContext

__all__ = ["RankContext", "RunResult", "run_app"]

__getattr__, __dir__ = repro._lazy_surface(__name__, {
    "launcher": ("RunResult", "run_app"),
    "world": ("RankContext",),
})
