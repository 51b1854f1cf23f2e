"""Protocol crossover: where does rendezvous start beating eager?

Not a paper figure, but the decision its protocol analysis implies: the
eager path buys sender-side buffering (instant Isend return, full sender
overlap) at the cost of a copy; zero-copy rendezvous avoids the copy but
needs the handshake.  Sweeping message size with each protocol forced,
this finds the latency-minimizing threshold -- and, separately, the
*overlap*-maximizing one, which is not the same answer (the framework's
point: latency tells only half the story).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.mpisim.config import MpiConfig
from repro.runtime.launcher import run_app
from repro.runtime.world import RankContext


@dataclasses.dataclass
class CrossoverPoint:
    """One (size, protocol) cell of the sweep."""

    nbytes: float
    protocol: str  # "eager" | rendezvous mode
    #: Mean per-message completion latency at the receiver (s).
    latency: float
    #: Sender's guaranteed overlap fraction with ample computation.
    sender_min_pct: float


def _pingpong(ctx: RankContext, nbytes: float, iters: int, compute: float):
    for _ in range(iters):
        if ctx.rank == 0:
            req = yield from ctx.comm.isend(1, 0, nbytes, bufkey="b")
            yield from ctx.compute(compute)
            yield from ctx.comm.wait(req)
        else:
            yield from ctx.comm.recv(0, 0)


def crossover_sweep(
    sizes: typing.Sequence[float],
    rndv_mode: str = "rget",
    iters: int = 30,
) -> list[CrossoverPoint]:
    """For each size, measure both protocols (forced via the threshold)."""
    points: list[CrossoverPoint] = []
    for nbytes in sizes:
        for protocol, limit in (("eager", int(nbytes)), (rndv_mode, 0)):
            config = MpiConfig(
                name=f"x-{protocol}", eager_limit=limit,
                rndv_mode=rndv_mode, leave_pinned=True,
            )
            # Ample computation so overlap potential is protocol-limited.
            compute = 3.0 * (6e-6 + nbytes / 700e6)
            result = run_app(
                _pingpong, 2, config=config,
                app_args=(nbytes, iters, compute),
            )
            receiver = result.report(1)
            # Receiver-side completion latency: time per message spent in
            # the library (recv call time / messages).
            latency = receiver.total.communication_call_time / iters
            points.append(
                CrossoverPoint(
                    nbytes=nbytes,
                    protocol=protocol,
                    latency=latency,
                    sender_min_pct=result.report(0).total.min_overlap_pct,
                )
            )
    return points


def find_crossover(points: typing.Sequence[CrossoverPoint]) -> float | None:
    """Smallest size at which rendezvous latency beats eager, or None."""
    by_size: dict[float, dict[str, CrossoverPoint]] = {}
    for p in points:
        by_size.setdefault(p.nbytes, {})[
            "eager" if p.protocol == "eager" else "rndv"
        ] = p
    for size in sorted(by_size):
        cell = by_size[size]
        if "eager" in cell and "rndv" in cell:
            if cell["rndv"].latency < cell["eager"].latency:
                return size
    return None
