"""Discrete-event simulation kernel.

A minimal, deterministic, generator-coroutine simulation core in the style
of SimPy, written from scratch so the reproduction has no dependencies
beyond the scientific stack.  The kernel provides:

* :class:`~repro.sim.engine.Engine` -- the event heap and simulation clock,
* :class:`~repro.sim.engine.RankClock` -- a process's private CPU clock,
  synchronised with the engine lazily (``Engine.advance_to``),
* :class:`~repro.sim.events.Event` and friends -- one-shot triggerable
  events, :class:`~repro.sim.events.Timeout`, and the ``AnyOf`` / ``AllOf``
  condition combinators,
* :class:`~repro.sim.process.Process` -- generator-based coroutines that
  ``yield`` events to suspend until they fire.

Determinism: ties in the event heap are broken by insertion order, and the
kernel never consults wall-clock time or global RNG state, so a simulation
is a pure function of its inputs.
"""

import repro

__getattr__, __dir__ = repro._lazy_surface(__name__, {
    "engine": ("Engine", "RankClock"),
    "events": (
        "AllOf",
        "AnyOf",
        "Event",
        "Interrupt",
        "SimulationError",
        "Timeout",
    ),
    "process": ("Process",),
})
