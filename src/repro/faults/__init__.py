"""Deterministic fault injection + resilience for the simulated stack.

``repro.faults`` splits into declarative schedules (:mod:`~repro.faults.plan`:
what goes wrong, seeded, hashable, cache-key-able), live machinery
(:mod:`~repro.faults.inject`: per-link RNG streams, verdicts, counters),
watchdog policy/diagnostics (:mod:`~repro.faults.watchdog`), and report
invariant checks for degraded runs (:mod:`~repro.faults.checks`).

Entry points: ``arm_faults(spec, seed, config)`` returns the ``params`` /
``config`` / ``watchdog`` of a faulted ``run_app`` call in one step; by
hand, ``NetworkParams(faults=FaultPlan(...))`` arms the fabric,
``MpiConfig(resilience=ResilienceParams())`` ack/retransmit, and a
``WatchdogConfig`` passed as ``watchdog=`` bounds wedged runs.
``faults=None`` (the default) is bit-identical to a fault-free build.
See docs/robustness.md.
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
        "arm_faults",
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
