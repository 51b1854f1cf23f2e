"""Test oracles: the slow formulations the shipped fast paths must equal.

A referee is a test oracle, never a runtime option: the package ships one
NIC scheduling path (burst macro-events) and one fence routine (the
incremental :meth:`_Coordinator.fences_now`); what each must be
bit-identical to lives here and is patched in by the tests that compare.
"""

import contextlib
import dataclasses

import pytest

from repro.metrics import MetricsRegistry
from repro.netsim.nic import Nic
from repro.runtime.launcher import run_app
from repro.sim.parallel import _Coordinator
from repro.telemetry.collect import TelemetryConfig

_INF = float("inf")


# -- per-packet NIC scheduling --------------------------------------------

def _packet_at(self, _stream, when, fn):
    """``Nic._burst_at`` without bursts: one engine event per completion.

    The sequence number is allocated at the same program point
    (``post_at``), so the ``(when, seq)`` order is the burst path's.
    """
    engine = self.engine
    engine.post_at(max(when, engine.now)).callbacks.append(fn)


@contextlib.contextmanager
def packet_path():
    """Schedule every NIC completion individually while the block runs."""
    with pytest.MonkeyPatch.context() as patches:
        patches.setattr(Nic, "_burst_at", _packet_at)
        yield


def run_both(app, nprocs, config=None, params=None, app_args=(), seed=0,
             label=""):
    """Run ``app`` on the shipped burst path and under :func:`packet_path`.

    Returns ``(fast_result, packet_result, fast_metrics, packet_metrics)``
    for :func:`repro.netsim.differential.compare_runs`; telemetry and
    metrics are collected on both sides, everything else about the two
    runs is identical by construction.
    """
    results, snapshots = [], []
    for path in (contextlib.nullcontext, packet_path):
        registry = MetricsRegistry()
        with path():
            results.append(run_app(
                app, nprocs, config=config, params=params,
                app_args=app_args, seed=seed, label=label,
                telemetry=TelemetryConfig(), metrics=registry,
            ))
        snapshots.append(registry.snapshot())
    return results[0], results[1], snapshots[0], snapshots[1]


# -- conservative fences ----------------------------------------------------

def fences_reference(co):
    """The O(shards²) nested-scan fence formulation of a live coordinator.

    Recomputed from first principles -- every boxed message and every
    outstanding obligation rescanned -- so it checks the maintained
    bound array and the recompute cache as well as the fence arithmetic.
    """
    n = co.nshards
    la = co.la
    s = list(co._bounds[:n])
    for j, box in enumerate(co.inbox):
        for msg in box:
            if msg.when < s[j]:
                s[j] = msg.when
    for creditor, horizon in co.obligations.values():
        if horizon < s[creditor]:
            s[creditor] = horizon
    b = [
        min(
            s[j],
            min((s[k] for k in range(n) if k != j), default=_INF) + la,
        )
        for j in range(n)
    ]
    fences = []
    for i in range(n):
        f = min((b[j] for j in range(n) if j != i), default=_INF) + la
        for creditor, horizon in co.obligations.values():
            if creditor == i and horizon < f:
                f = horizon
        fences.append(f)
    return fences


@dataclasses.dataclass
class FenceChecks:
    """What :func:`checking_fences` saw."""

    #: ``fences_now`` calls compared with :func:`fences_reference`.
    compared: int = 0
    #: ... of which with placement-ACK obligations outstanding.
    with_obligations: int = 0


@contextlib.contextmanager
def checking_fences():
    """Assert every ``fences_now`` call -- cached or recomputed -- returns
    the floats :func:`fences_reference` does; yields the
    :class:`FenceChecks` tally."""
    fences_now = _Coordinator.fences_now
    checks = FenceChecks()

    def checked(co):
        fences = fences_now(co)
        assert fences == fences_reference(co)
        checks.compared += 1
        checks.with_obligations += bool(co.obligations)
        return fences

    with pytest.MonkeyPatch.context() as patches:
        patches.setattr(_Coordinator, "fences_now", checked)
        yield checks
