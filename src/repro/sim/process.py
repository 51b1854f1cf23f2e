"""Generator-coroutine processes.

A :class:`Process` wraps a generator.  The generator ``yield``-s
:class:`~repro.sim.events.Event` instances; the process suspends until the
event fires, then resumes with the event's value (or with the event's
exception raised at the yield point).  A process is itself an event that
succeeds with the generator's return value, so processes can wait on each
other.  A process waits on one event at a time and wakes only when it
fires: the simulated libraries make progress by polling.
"""

from __future__ import annotations

import typing

from repro.sim.events import Event, SimulationError, Timeout

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class ClockSync:
    """A process's one reusable pending-store entry for clock syncs.

    :meth:`Engine.advance_to <repro.sim.engine.Engine.advance_to>`, called
    by a running process, arms its entry (``seq`` takes the sequence
    number just drawn, ``(when, seq, entry)`` goes into the store) and
    hands it back to be yielded.  The run loops recognise the class
    through the class-level ``callbacks = None``, like a sync group's,
    and resume the process with the entry itself as the event
    (``_ok`` / ``_value``: a sync succeeds, with no value) -- no
    ``Timeout``, no callbacks list, nothing to validate.  ``seq`` is -1
    while idle; while armed it is the key of the entry's one place in the
    store, and only that entry's dispatch disarms it.
    """

    callbacks = None  # class-level: run-loop discriminant, never assigned
    _ok = True
    _value = None
    __slots__ = ("wake", "seq")

    def __init__(self, wake: "typing.Callable[[ClockSync], None]") -> None:
        #: The owning process's resume callback, called with this entry.
        self.wake = wake
        self.seq = -1


class Process(Event):
    """A running simulated activity driven by a generator."""

    __slots__ = ("generator", "_target", "name", "_send", "_throw",
                 "_bound_resume", "_sync")

    def __init__(
        self,
        engine: "Engine",
        generator: typing.Generator,
        name: str | None = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"Process needs a generator, got {generator!r}; did you call "
                "the function instead of passing its generator?"
            )
        super().__init__(engine)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Bound-method lookups are hot enough to show in kernel profiles:
        # every resume calls send/throw, and every suspend registers the
        # resume callback, so bind them once here.
        self._send = generator.send
        self._throw = generator.throw
        self._bound_resume = self._resume
        self._sync = ClockSync(self._bound_resume)
        #: What this process is currently suspended on (None if running
        #: or finished).
        self._target: "Event | ClockSync | None" = None
        # Kick off at the current time.
        init = Event(engine)
        init.callbacks.append(self._bound_resume)  # type: ignore[union-attr]
        init._ok = True
        init._value = None
        engine._post(init)

    @property
    def is_alive(self) -> bool:
        """True until the generator has finished."""
        return not self.triggered

    # -- driving ----------------------------------------------------------
    def _resume(self, event: "Event | ClockSync") -> None:
        sync = self._sync
        if event is sync and self._target is not sync:
            # Armed but never yielded: fires like a timeout nobody awaits.
            return
        self._target = None
        send = self._send
        throw = self._throw
        engine = self.engine
        engine._running = self  # advance_to() arms *this* process's entry
        try:
            while True:
                try:
                    if event._ok:
                        next_ev = send(event._value)
                    else:
                        event._defused = True  # type: ignore[union-attr]
                        next_ev = throw(typing.cast(BaseException, event._value))
                except StopIteration as stop:
                    self.succeed(stop.value)
                    return
                except BaseException as exc:
                    self.fail(exc)
                    return

                # Its own clock sync first: almost everything a rank yields.
                if next_ev is sync:
                    if sync.seq < 0:
                        event = sync  # already retired: carry on at once
                        continue
                    self._target = sync
                    return
                # Exact-Timeout test next: the class compare skips isinstance.
                if next_ev.__class__ is not Timeout and not isinstance(next_ev, Event):
                    # Thrown in at the yield, like a failed event; whatever
                    # the generator yields next is what it waits on.
                    event = Event(engine)
                    event._ok = False
                    event._value = SimulationError(
                        f"process {self.name!r} yielded {next_ev!r}, which is "
                        "not an Event (use engine.timeout(...) for delays)"
                    )
                    continue
                if next_ev.engine is not engine:
                    self.fail(
                        SimulationError(
                            f"process {self.name!r} yielded an event from a "
                            "different engine"
                        )
                    )
                    return

                callbacks = next_ev.callbacks
                if callbacks is None:
                    # Already settled: continue immediately with its outcome.
                    event = next_ev
                    continue
                self._target = next_ev
                callbacks.append(self._bound_resume)
                return
        finally:
            engine._running = None

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "done"
        return f"<Process {self.name} {state} at {id(self):#x}>"
