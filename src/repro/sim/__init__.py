"""Discrete-event simulation kernel.

A minimal, deterministic, generator-coroutine simulation core in the style
of SimPy, written from scratch so the reproduction has no dependencies
beyond the scientific stack.  The kernel provides:

* :class:`~repro.sim.engine.Engine` -- the event heap and simulation clock,
* :class:`~repro.sim.engine.RankClock` -- a process's private CPU clock,
  synchronised with the engine lazily (``Engine.advance_to``),
* :class:`~repro.sim.events.Event` -- one-shot triggerable events, and
  :class:`~repro.sim.events.Timeout`, which fires after a delay and can be
  cancelled before it does,
* :class:`~repro.sim.process.Process` -- generator-based coroutines that
  ``yield`` one event at a time to suspend until it fires.

Determinism: ties in the event heap are broken by insertion order, and the
kernel never consults wall-clock time or global RNG state, so a simulation
is a pure function of its inputs.
"""

import repro

__getattr__, __dir__ = repro._lazy_surface(__name__, {
    "engine": ("Engine", "RankClock"),
    "events": ("Event", "SimulationError", "Timeout"),
    "process": ("Process",),
})
