"""Deterministic fault injection + resilience for the simulated stack.

``repro.faults`` splits into declarative schedules (:mod:`~repro.faults.plan`:
what goes wrong, seeded, hashable, cache-key-able), live machinery
(:mod:`~repro.faults.inject`: per-link RNG streams, verdicts, counters),
watchdog policy/diagnostics (:mod:`~repro.faults.watchdog`), and report
invariant checks for degraded runs (:mod:`~repro.faults.checks`).

Entry points: set ``NetworkParams(faults=FaultPlan(...))`` to arm the
fabric, ``MpiConfig(resilience=ResilienceParams())`` to arm ack/retransmit,
and pass ``watchdog=WatchdogConfig(...)`` to ``run_app`` to bound wedged
runs.  ``faults=None`` (the default) is bit-identical to a fault-free
build.  See docs/robustness.md.
"""

import repro

__getattr__, __dir__ = repro._lazy_surface(__name__, {
    "checks": ("InvariantViolation", "check_run_invariants"),
    "inject": ("FaultInjector", "PacketVerdict", "StampLoss"),
    "plan": (
        "FaultPlan",
        "LinkDegradation",
        "NicStall",
        "ResilienceParams",
        "parse_fault_spec",
    ),
    "transport": (
        "TransportFaultInjected",
        "TransportFaultPlan",
        "TransportInjector",
        "parse_transport_fault_spec",
    ),
    "watchdog": (
        "RankSnapshot",
        "WatchdogConfig",
        "WatchdogDiagnostic",
        "diagnose",
    ),
})
