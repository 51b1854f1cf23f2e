"""Per-rank application context.

A simulated application is a generator function ``app(ctx)`` receiving a
:class:`RankContext`; it communicates through ``ctx.comm`` and spends CPU
through ``ctx.compute``.  Time spent in ``compute`` falls outside library
calls, so the instrumentation attributes it to user computation.

The rank's time is ``ctx.now`` (its own CPU clock).  ``ctx.engine.now`` is
the event queue's time and may lag it: the rank catches the engine up only
when it touches the network.
"""

from __future__ import annotations

import math
import typing

from repro.mpisim.communicator import Comm
from repro.mpisim.endpoint import Endpoint
from repro.sim import Engine


class ProcessContext:
    """What every simulated process sees, whatever library it runs on.

    A library's context adds its communication object and a
    ``finalize()`` generator (what a rank does after its code returns).
    """

    def __init__(self, engine: Engine, endpoint: typing.Any) -> None:
        self.engine = engine
        self.endpoint = endpoint
        #: The rank's CPU clock (shared with the endpoint and the monitor).
        self.clock = endpoint.clock
        #: The per-process monitor (section control lives here).
        self.monitor = endpoint.monitor
        #: Ground-truth computation intervals (for bound validation).
        self.compute_log: list[tuple[float, float]] = []

    @property
    def rank(self) -> int:
        return self.endpoint.rank

    @property
    def size(self) -> int:
        return self.endpoint.size

    @property
    def now(self) -> float:
        """Current simulation time of this rank (seconds)."""
        return self.clock.now

    def section(self, name: str):
        """Context manager marking a monitored code region (Sec. 2.3)."""
        return self.monitor.section(name)

    def compute(self, seconds: float) -> "typing.Iterable[typing.Any]":
        """Spend ``seconds`` of user computation (outside the library).

        Only the rank's own clock moves, so there is nothing to wait for;
        the empty iterable keeps ``yield from ctx.compute(dt)`` working.
        """
        if not 0 <= seconds < math.inf:  # NaN fails both
            raise ValueError(
                f"compute time must be finite and >= 0, got {seconds!r}")
        if seconds > 0:
            clock = self.clock
            start = clock.now
            clock.now = start + seconds
            self.compute_log.append((start, clock.now))
        return ()


class RankContext(ProcessContext):
    """Everything one simulated MPI process sees."""

    def __init__(self, engine: Engine, endpoint: Endpoint) -> None:
        super().__init__(engine, endpoint)
        #: The instrumented communicator.
        self.comm = Comm(endpoint)

    def finalize(self) -> typing.Generator:
        """``MPI_Finalize``, then catch the event queue up with the rank:
        the job ends when the engine gets here."""
        yield from self.comm.finalize()
        yield from self.endpoint.sync()
