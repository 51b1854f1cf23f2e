"""The ARMCI half of a launch: the stack builder and the context that
:func:`repro.runtime.launcher.run_app` picks for an ``ArmciConfig``."""

from __future__ import annotations

import typing

from repro.armci.api import ArmciConfig, ArmciEndpoint, Region
from repro.runtime.launcher import RunResult, build_monitor, run_app
from repro.runtime.world import ProcessContext
from repro.sim import Engine
from repro.sim.engine import RankClock


class ArmciContext(ProcessContext):
    """Everything one simulated ARMCI process sees."""

    def __init__(self, engine: Engine, endpoint: ArmciEndpoint) -> None:
        super().__init__(engine, endpoint)
        self.armci = endpoint

    def malloc(self, name: str, shape: object, dtype: object = "float64") -> Region:
        """Create and register this rank's piece of a shared region, zeroed
        at its first data access (:meth:`Region.zeros`)."""
        return self.armci._register(Region.zeros(self.rank, name, shape, dtype))

    def finalize(self) -> typing.Generator:
        """``ARMCI_Finalize``, then catch the event queue up with the rank:
        the job ends when the engine gets here."""
        yield from self.armci.finalize()
        yield from self.armci.sync()


def armci_stack_builder() -> typing.Callable:
    """One job's ARMCI stack builder (see ``launcher._stack_builder``):
    its ranks share one region directory, which is why the job cannot be
    sharded."""
    directory: dict[tuple[int, str], Region] = {}

    def build(engine, fabric, rank, nprocs, config, table, *observers):
        clock = RankClock(engine.now)
        monitor, sink = build_monitor(
            fabric, rank, config, table, clock, "ARMCI_Init", *observers)
        endpoint = ArmciEndpoint(
            engine, fabric, rank, nprocs, config, monitor, clock, directory)
        return monitor, endpoint, ArmciContext(engine, endpoint), sink

    return build


def run_armci_app(
    app: typing.Callable[..., typing.Generator],
    nprocs: int,
    config: ArmciConfig | None = None,
    **run_app_options: typing.Any,
) -> RunResult:
    """:func:`~repro.runtime.launcher.run_app` with an ARMCI stack.

    Same options, observers and :class:`~repro.runtime.launcher.RunResult`;
    ``config`` defaults to ``ArmciConfig()`` instead of ``MpiConfig()``.
    """
    return run_app(app, nprocs, config or ArmciConfig(), **run_app_options)
