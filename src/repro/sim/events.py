"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence.  It starts *untriggered*; calling
:meth:`Event.succeed` or :meth:`Event.fail` schedules it for processing at the
current simulation time, at which point the engine invokes its callbacks (in
registration order).  Processes suspend on events by ``yield``-ing them.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

_PENDING = object()


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (double-trigger, etc.)."""


class Event:
    """A one-shot event that callbacks and processes can wait on.

    Parameters
    ----------
    engine:
        The owning :class:`~repro.sim.engine.Engine`.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        #: Callables ``cb(event)`` invoked when the event is processed.
        #: ``None`` once processed (late callbacks are a bug we surface).
        self.callbacks: list[typing.Callable[["Event"], None]] | None = []
        self._value: object = _PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful when triggered)."""
        return self._ok

    @property
    def value(self) -> object:
        """The event's value; raises if the event is still pending."""
        if self._value is _PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.engine._post(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception that waiters will receive."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.engine._post(self)
        return self

    def __repr__(self) -> str:
        state = (
            "pending"
            if self._value is _PENDING
            else ("ok" if self._ok else "failed")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: object = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        # Event.__init__ is inlined: timeouts are the simulator's most
        # frequently allocated object, and the extra super() dispatch showed
        # up in kernel profiles.
        self.engine = engine
        self.callbacks = []
        self._ok = True
        self._value = value
        self._defused = False
        self.delay = delay
        engine._post(self, delay=delay)

    def cancel(self) -> bool:
        """Withdraw this timeout before it fires.

        A cancelled timeout never runs its callbacks and does not count as
        a processed event.  The engine removes it from the pending store
        lazily (skipped when popped; bulk-compacted when cancellations
        accumulate), so cancelling is O(1) and a wait-heavy workload that
        abandons guard timeouts keeps a bounded pending population.

        Returns True if the timeout was withdrawn, False if it already
        fired (or was already cancelled).  The caller is responsible for
        detaching any waiters first -- cancelling a timeout that a process
        still sleeps on would strand it.
        """
        return self.engine._cancel(self)
