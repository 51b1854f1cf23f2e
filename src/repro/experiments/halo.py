"""Synthetic halo exchange: the shard scale-curve workload.

A 1-D ring decomposition with nearest-neighbor boundary exchange -- the
communication skeleton of every stencil code.  Each step posts eager-sized
``isend``/``irecv`` pairs to both neighbors, computes the interior while
they fly, then ``waitall``s: the canonical computation-communication
overlap pattern the paper instruments (Sec. 2), reduced to its minimal
form.

Because traffic is strictly nearest-neighbor in rank order, a contiguous
rank partition cuts exactly two directed links per shard boundary --
independent of the rank count -- which makes this the reference workload
for the sharded engine's scale curve (``benchmarks/check_regression.py``):
per-shard work grows with ranks-per-shard while cross-shard traffic stays
constant.
"""

from __future__ import annotations

import typing

from repro.runtime.world import RankContext

_TAG_LEFT = 710
_TAG_RIGHT = 711


def halo_app(
    ctx: RankContext,
    steps: int = 50,
    nbytes: float = 4096.0,
    compute_s: float = 20.0e-6,
) -> typing.Generator:
    """One rank of a periodic 1-D halo exchange; returns steps completed.

    Per step: post receives from both ring neighbors, send both boundary
    pencils (``nbytes`` each -- keep it below the eager limit so the
    exchange needs no rendezvous round-trips), overlap ``compute_s`` of
    interior work, then wait for all four requests.
    """
    comm = ctx.comm
    size = ctx.size
    rank = ctx.rank
    left = (rank - 1) % size
    right = (rank + 1) % size
    for _step in range(steps):
        if size > 1:
            rl = yield from comm.irecv(left, _TAG_RIGHT)
            rr = yield from comm.irecv(right, _TAG_LEFT)
            sl = yield from comm.isend(left, _TAG_LEFT, nbytes,
                                       bufkey="halo-left")
            sr = yield from comm.isend(right, _TAG_RIGHT, nbytes,
                                       bufkey="halo-right")
        yield from ctx.compute(compute_s)
        if size > 1:
            yield from comm.waitall([rl, rr, sl, sr])
    return steps


def main(argv: "typing.Sequence[str] | None" = None) -> int:
    """CLI: run (and optionally differential-check) a sharded halo run.

    The CI high-rank smoke job drives this::

        python -m repro.experiments.halo --ranks 1024 --shards 4 \\
            --steps 3 --check --json

    ``--check`` runs the full sharded differential
    (:func:`repro.netsim.differential.run_sharded_pair` compared by
    :func:`~repro.netsim.differential.assert_no_deltas`): the
    sharded run must be bit-identical to a single-process run or the
    process exits nonzero with the first diverging measures printed.

    ``--backend socket`` drives workers over TCP: give running worker
    addresses with ``--hosts``, or let ``--workers N`` spawn N local
    ``repro.sim.remote`` subprocesses (the CI multi-host smoke).  A lost
    worker -- a socket worker armed with ``--worker-fault drop-after=5``,
    a forked ``--backend process`` worker that was SIGKILLed or
    SIGSTOPped -- prints the shard-loss diagnostic snapshot and exits
    with code 3 within ``--host-timeout`` seconds -- never a hang.
    """
    import argparse
    import json as _json
    import sys as _sys

    parser = argparse.ArgumentParser(
        prog="repro.experiments.halo",
        description="Sharded halo-exchange smoke runner.",
    )
    parser.add_argument("--ranks", type=int, default=64)
    parser.add_argument("--steps", type=int, default=5)
    parser.add_argument("--nbytes", type=float, default=4096.0)
    parser.add_argument("--compute-us", type=float, default=20.0)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--backend",
                        choices=("process", "inline", "socket"),
                        default="process")
    parser.add_argument("--hosts", default=None,
                        help="comma-separated host:port list of running "
                        "repro.sim.remote workers (socket backend)")
    parser.add_argument("--workers", type=int, default=0,
                        help="spawn N local socket workers instead of "
                        "--hosts (socket backend)")
    parser.add_argument("--worker-fault", default=None, metavar="SPEC",
                        help="transport fault armed on the first spawned "
                        "worker, e.g. drop-after=5 (see "
                        "repro.faults.parse_transport_fault_spec)")
    parser.add_argument("--host-timeout", type=float, default=10.0,
                        help="declare a silent shard worker lost after "
                        "this many seconds (default %(default)s)")
    parser.add_argument("--check", action="store_true",
                        help="also run single-process and require "
                        "bit-identical results")
    parser.add_argument("--json", action="store_true",
                        help="print a machine-readable summary")
    args = parser.parse_args(argv)
    if args.worker_fault and (args.backend != "socket" or args.hosts):
        # Faults are armed on workers *we* spawn; on externally managed
        # hosts (or non-socket backends) the spec would be silently
        # ignored and a fault-injection run would look like a healthy
        # pass.
        parser.error(
            "--worker-fault requires --backend socket with spawned "
            "workers (--workers N); it cannot be armed on externally "
            "started --hosts workers")

    from repro.mpisim.config import mvapich2_like
    from repro.netsim.transport import TransportOptions
    from repro.sim.parallel import ShardHostLost
    # Under ``python -m repro.experiments.halo`` this module *is*
    # ``__main__``; re-import the app by its canonical name so it pickles
    # resolvably for socket workers (whose ``__main__`` is repro.sim.remote).
    from repro.experiments.halo import halo_app as _app

    app_args = (args.steps, args.nbytes, args.compute_us * 1e-6)
    config = mvapich2_like()
    pool = None
    hosts = None
    transport = TransportOptions(
        heartbeat_interval=min(0.5, args.host_timeout / 4.0),
        host_timeout=args.host_timeout,
    )
    if args.backend == "socket":
        if args.hosts:
            hosts = [h.strip() for h in args.hosts.split(",") if h.strip()]
        else:
            from repro.sim.remote import LocalWorkerPool

            count = args.workers or 2
            faults = None
            if args.worker_fault:
                faults = [args.worker_fault] + [None] * (count - 1)
            pool = LocalWorkerPool(count, faults=faults)
            hosts = pool.addresses
    try:
        if args.check:
            from repro.netsim.differential import (
                assert_no_deltas,
                compare_sharded,
                run_sharded_pair,
            )

            single, result = run_sharded_pair(
                _app, args.ranks, args.shards, config=config,
                app_args=app_args, backend=args.backend,
                hosts=hosts, transport=transport,
            )
            try:
                assert_no_deltas(compare_sharded(single, result))
            except AssertionError as exc:
                print(f"halo --check FAILED: {exc}")
                return 1
        else:
            from repro.runtime.launcher import run_app

            result = run_app(
                _app, args.ranks, config=config, app_args=app_args,
                label=f"halo.{args.ranks}", shards=args.shards,
                shard_backend=args.backend, shard_hosts=hosts,
                shard_transport=transport,
            )
    except ShardHostLost as exc:
        if exc.diagnostic is not None:
            print(exc.diagnostic.render_text(), file=_sys.stderr)
        else:
            print(f"halo: {exc}", file=_sys.stderr)
        if args.json and exc.partial is not None:
            print(_json.dumps(exc.partial, indent=2))
        return 3
    finally:
        if pool is not None:
            pool.close()
    st = result.sync_stats
    summary = {
        "ranks": args.ranks,
        "shards": args.shards,
        "checked": args.check,
        "events": st["events"],
        "rounds": st["rounds"],
        "messages": st["messages"],
        "events_per_busy_s": round(st["events"] / max(st["busy_s"])),
        "elapsed_sim_s": result.elapsed,
    }
    if args.json:
        print(_json.dumps(summary, indent=2))
    else:
        checked = " [bit-identity checked]" if args.check else ""
        print(
            f"halo {args.ranks} ranks x {args.steps} steps, "
            f"shards={args.shards}{checked}: "
            f"{summary['events']} events in {summary['rounds']} rounds, "
            f"{summary['events_per_busy_s']} ev/s per busy-CPU"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
