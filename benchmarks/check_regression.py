"""CI benchmark-regression guard.

Compares a freshly measured ``BENCH_simulator.json`` against the floor
committed in the repository and fails (exit 1) when a guarded number
regresses by more than the tolerance: ``engine_ping_pong.events_per_s``
and the sharded scale curve (``shard_scale.events_per_s_x1``, the
``speedup_x4`` capacity ratio) may not drop, and ``full_stack_lu.mean_s``
may not rise, by more than 15% (CI machines are noisy; a real perf bug
moves these far more).  With the committed ``speedup_x4`` at ~3x, the
15% tolerance keeps the effective floor above the 2.5x acceptance bar.

Usage (CI snapshots the committed file before the bench run rewrites
it)::

    cp BENCH_simulator.json /tmp/bench_floor.json
    pytest benchmarks/test_simulator_performance.py \\
        benchmarks/test_shard_scale.py --benchmark-only
    python benchmarks/check_regression.py \\
        --floor /tmp/bench_floor.json --current BENCH_simulator.json
"""

from __future__ import annotations

import argparse
import json
import sys

#: (block, key, direction[, tolerance]) -- "higher" means bigger is
#: better; an optional fourth element overrides the run's tolerance for
#: that one check.  Blocks missing from either file are SKIPped, so one
#: guard serves both ``BENCH_simulator.json`` and ``BENCH_service.json``
#: (the CI service job runs it a second time against the service file,
#: with a wider tolerance: HTTP latency numbers are noisier than
#: simulator throughput).
CHECKS = (
    ("engine_ping_pong", "events_per_s", "higher"),
    ("full_stack_lu", "mean_s", "lower"),
    ("shard_scale", "events_per_s_x1", "higher"),
    ("shard_scale", "speedup_x4", "higher"),
    ("shard_scale", "speedup_x8", "higher"),
    ("shard_scale_hi", "events_per_s_1024", "higher"),
    ("shard_scale_hi", "events_per_s_4096", "higher"),
    # Socket-backend capacity rides real TCP + subprocess scheduling on
    # a shared runner; guard only against outright collapse.
    ("shard_socket", "events_per_s", "higher", 0.5),
    ("tracing_overhead_lu", "paired_ratio_median", "lower"),
    ("service_load", "submissions_per_s", "higher"),
    ("service_load", "served_hot_ratio", "higher"),
    ("service_load", "warm_hit_p50_ms", "lower"),
)
DEFAULT_TOLERANCE = 0.15


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/check_regression.py",
        description="Fail when benchmark numbers regress past the "
        "committed floor.",
    )
    parser.add_argument("--floor", required=True,
                        help="committed BENCH_simulator.json (the floor)")
    parser.add_argument("--current", required=True,
                        help="freshly measured BENCH_simulator.json")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional regression "
                        "(default %(default)s)")
    args = parser.parse_args(argv)

    def load(path: str) -> dict:
        # Measured blocks live under the "current" key; accept a bare
        # top-level layout too so the tool works on extracted blocks.
        with open(path) as fh:
            data = json.load(fh)
        return data.get("current", data)

    floor = load(args.floor)
    current = load(args.current)

    failures = []
    for block, key, direction, *extra in CHECKS:
        tolerance = extra[0] if extra else args.tolerance
        ref = floor.get(block, {}).get(key)
        got = current.get(block, {}).get(key)
        name = f"{block}.{key}"
        if ref is None or got is None:
            print(f"SKIP {name}: missing from "
                  f"{'floor' if ref is None else 'current'} file")
            continue
        if direction == "higher":
            limit = ref * (1.0 - tolerance)
            ok = got >= limit
            verdict = f"{got:.6g} >= {limit:.6g}"
        else:
            limit = ref * (1.0 + tolerance)
            ok = got <= limit
            verdict = f"{got:.6g} <= {limit:.6g}"
        status = "OK  " if ok else "FAIL"
        print(f"{status} {name}: {verdict} (floor {ref:.6g}, "
              f"tolerance {tolerance:.0%})")
        if not ok:
            failures.append(name)

    if failures:
        print(f"benchmark regression in: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print("no benchmark regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
