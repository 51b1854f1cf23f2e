"""Critical-path attribution over a merged host-span trace.

Consumes the Chrome ``trace_event`` JSON written by
:mod:`repro.tracing.merge` and answers the question ROADMAP item 1
needs answered before pushing the sharded engine to thousands of ranks:
*where does the wall-clock actually go?*  The output is a named-bucket
breakdown -- ``X% shard compute, Y% fence wait, Z% channel I/O,
W% queue wait`` -- plus the slowest-shard imbalance.

Attribution model
-----------------
The trace has two kinds of timelines:

* the **spine**: the serial chain of delegations (service submit ->
  queue -> worker -> sweep cell -> coordinator).  At any instant exactly
  one spine stage is responsible for the wall-clock, so a line sweep
  over all spine spans attributes each elementary interval to the
  *innermost* active span (latest start wins -- nesting depth);
* the **shards**: genuinely parallel workers.  Their time is accounted
  through the coordinator's wait intervals: while the coordinator waits
  on shard replies, shards compute.  The wait pool is therefore split
  into *shard compute* (the mean per-shard busy time, i.e. what a
  perfectly balanced run would need), *channel I/O* (mean shard-side
  injection), and the remainder *fence wait* -- the synchronization
  cost the conservative protocol pays, including imbalance.

Everything between the global first span start and last span end that no
spine span covers lands in ``unattributed`` -- the acceptance bar keeps
that under 5%.

``validate_trace`` is the ``--check`` half: structural invariants any
well-formed merged trace must satisfy (closed spans, finite
non-negative timestamps, monotonic per-process end order, named
processes, balanced async pairs).
"""

from __future__ import annotations

import math
import typing

#: Category -> breakdown bucket.  Wait-pool categories (``None``) are
#: split into shard compute / channel I/O / fence wait after the sweep.
_WAIT = None
SPINE_BUCKETS: "dict[str, str | None]" = {
    "service.http": "service overhead",
    "service.submit": "service overhead",
    "service.execute": "service overhead",
    "service.cache": "cache probe",
    "service.queue": "queue wait",
    "runner.root": "runner overhead",
    "runner.task": "runner overhead",
    "runner.cache": "cache probe",
    "launcher.build": "launcher build",
    "launcher.run": "engine compute",
    "launcher.finalize": "finalize/merge",
    "coord.run": "coordination",
    "coord.fence": "fence recompute",
    "coord.flush": "channel I/O",
    "coord.wait": _WAIT,
    "coord.dispatch": _WAIT,
    "coord.finish": "finalize/merge",
}

#: Categories recorded on shard-worker timelines (parallel, not spine).
SHARD_CATEGORIES = ("shard.advance", "shard.inject")


class _Span(typing.NamedTuple):
    pid: int
    name: str
    cat: str
    ts: float    # seconds
    dur: float   # seconds


def _spans_of(trace: dict) -> "tuple[list[_Span], dict[int, str], dict]":
    names: "dict[int, str]" = {}
    spans: "list[_Span]" = []
    coord_args: dict = {}
    for ev in trace.get("traceEvents", ()):
        ph = ev.get("ph")
        if ph == "M" and ev.get("name") == "process_name":
            names[int(ev["pid"])] = str(ev.get("args", {}).get("name", ""))
        elif ph == "X":
            spans.append(_Span(int(ev.get("pid", 0)), str(ev.get("name", "")),
                               str(ev.get("cat", "")),
                               float(ev.get("ts", 0.0)) / 1e6,
                               float(ev.get("dur", 0.0)) / 1e6))
            if ev.get("cat") == "coord.run":
                coord_args = dict(ev.get("args", {}))
    return spans, names, coord_args


# ---------------------------------------------------------------------------
# --check: structural validation
# ---------------------------------------------------------------------------
def validate_trace(trace: dict) -> "list[str]":
    """Structural problems in a merged trace (empty list == valid)."""
    problems: "list[str]" = []
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents missing or empty"]
    spans, names, _coord = _spans_of(trace)
    if not spans:
        problems.append("no complete ('X') span slices in the trace")
        return problems
    extent = 0.0
    for s in spans:
        if not (math.isfinite(s.ts) and math.isfinite(s.dur)):
            problems.append(f"non-finite timestamp on span {s.name!r}")
        elif s.ts + s.dur > extent:
            extent = s.ts + s.dur
    for s in spans:
        if s.dur < 0.0:
            problems.append(f"negative duration on span {s.name!r} "
                            f"(pid {s.pid})")
        if s.ts < -1e-9:
            problems.append(f"span {s.name!r} starts before the trace "
                            f"anchor (ts={s.ts:.6f}s)")
        if s.cat.endswith(".unclosed") or s.cat == "unclosed":
            problems.append(f"unclosed span {s.name!r} (pid {s.pid}, "
                            f"category {s.cat!r})")
    # Per-process monotonicity: the tracer records spans in end order, so
    # a merged trace whose per-pid end times go backwards was corrupted
    # (or hand-assembled from incomparable clocks).
    last_end: "dict[int, float]" = {}
    for s in spans:
        end = s.ts + s.dur
        if end < last_end.get(s.pid, float("-inf")) - 1e-9:
            problems.append(f"non-monotonic span end order on pid {s.pid} "
                            f"at {s.name!r}")
            break
        last_end[s.pid] = end
    for pid in sorted({s.pid for s in spans}):
        if pid not in names:
            problems.append(f"pid {pid} has spans but no process_name "
                            "metadata")
    # Async begin/end balance (the simulated-time exporter's b/e pairs).
    open_async: "dict[tuple, int]" = {}
    for ev in events:
        ph = ev.get("ph")
        if ph in ("b", "e"):
            key = (ev.get("pid"), ev.get("cat"), ev.get("id"))
            open_async[key] = open_async.get(key, 0) + (1 if ph == "b" else -1)
    for key, depth in open_async.items():
        if depth != 0:
            problems.append(f"unbalanced async span pair {key!r}")
    return problems


# ---------------------------------------------------------------------------
# Critical-path breakdown
# ---------------------------------------------------------------------------
def explain_trace(trace: dict) -> dict:
    """Attribute the trace's wall-clock to named stage buckets."""
    spans, names, coord_args = _spans_of(trace)
    if not spans:
        raise ValueError("trace has no span slices to explain")
    t_lo = min(s.ts for s in spans)
    t_hi = max(s.ts + s.dur for s in spans)
    wall = max(0.0, t_hi - t_lo)

    shard_pids = sorted({s.pid for s in spans if s.cat == "shard.advance"})
    shard_set = set(shard_pids)
    spine = [s for s in spans
             if s.pid not in shard_set and s.cat not in SHARD_CATEGORIES]

    # Line sweep over the spine: attribute each elementary interval to
    # the innermost (latest-started) active span's bucket.
    buckets: "dict[str, float]" = {}
    wait_pool = 0.0
    covered = 0.0
    boundaries: "list[tuple[float, int, int]]" = []
    for idx, s in enumerate(spine):
        boundaries.append((s.ts, 1, idx))
        boundaries.append((s.ts + s.dur, 0, idx))
    boundaries.sort()
    active: "dict[int, _Span]" = {}
    prev_t = t_lo
    bi = 0
    while bi < len(boundaries):
        t = boundaries[bi][0]
        dt = t - prev_t
        if dt > 0.0 and active:
            inner_idx = max(active, key=lambda i: (active[i].ts, i))
            cat = active[inner_idx].cat
            bucket = SPINE_BUCKETS.get(cat, "other")
            covered += dt
            if bucket is _WAIT:
                wait_pool += dt
            else:
                buckets[bucket] = buckets.get(bucket, 0.0) + dt
        while bi < len(boundaries) and boundaries[bi][0] == t:
            _t, is_open, idx = boundaries[bi]
            if is_open:
                active[idx] = spine[idx]
            else:
                active.pop(idx, None)
            bi += 1
        prev_t = t

    # Split the coordinator's wait pool using what shards actually did.
    shard_busy = {pid: 0.0 for pid in shard_pids}
    shard_inject = {pid: 0.0 for pid in shard_pids}
    for s in spans:
        if s.cat == "shard.advance":
            shard_busy[s.pid] += s.dur
        elif s.cat == "shard.inject":
            shard_inject[s.pid] += s.dur
    # Inline-backend shards execute serially inside the dispatch loop, so
    # the wait pool holds the *sum* of their busy time; process-backend
    # shards run concurrently, so a balanced run only needs the mean.
    serial = coord_args.get("backend") == "inline"
    if shard_pids:
        mean_busy = sum(shard_busy.values()) / len(shard_pids)
        mean_inject = sum(shard_inject.values()) / len(shard_pids)
        pool_busy = sum(shard_busy.values()) if serial else mean_busy
        pool_inject = sum(shard_inject.values()) if serial else mean_inject
    else:
        mean_busy = mean_inject = pool_busy = pool_inject = 0.0
    if wait_pool > 0.0:
        compute = min(wait_pool, pool_busy)
        io_extra = min(pool_inject, wait_pool - compute)
        fence_wait = max(0.0, wait_pool - compute - io_extra)
        if compute:
            buckets["shard compute"] = buckets.get("shard compute", 0.0) + compute
        if io_extra:
            buckets["channel I/O"] = buckets.get("channel I/O", 0.0) + io_extra
        if fence_wait:
            buckets["fence wait"] = buckets.get("fence wait", 0.0) + fence_wait

    unattributed = max(0.0, wall - covered - wait_pool)
    categorized = (1.0 - unattributed / wall) if wall > 0.0 else 1.0

    shards_summary = None
    if shard_pids:
        busiest = max(shard_pids, key=lambda pid: shard_busy[pid])
        shards_summary = {
            "count": len(shard_pids),
            "busy_s": {names.get(pid, str(pid)): round(shard_busy[pid], 6)
                       for pid in shard_pids},
            "mean_busy_s": round(mean_busy, 6),
            "max_busy_s": round(shard_busy[busiest], 6),
            "slowest": names.get(busiest, str(busiest)),
            "imbalance": round(shard_busy[busiest] / mean_busy, 4)
            if mean_busy > 0.0 else 1.0,
        }

    return {
        "wall_s": round(wall, 6),
        "span_count": len(spans),
        "processes": [names[pid] for pid in sorted(names)],
        "buckets_s": {k: round(v, 6)
                      for k, v in sorted(buckets.items(),
                                         key=lambda kv: -kv[1])},
        "unattributed_s": round(unattributed, 6),
        "categorized_frac": round(categorized, 4),
        "shards": shards_summary,
        "trace_id": typing.cast(dict, trace.get("otherData", {})
                                ).get("trace_id", ""),
    }


def render_explain(summary: dict) -> str:
    """Human-readable report of :func:`explain_trace`'s summary."""
    wall = float(summary["wall_s"])
    lines = [
        f"trace {summary.get('trace_id') or '?'}: "
        f"{len(summary['processes'])} processes, "
        f"{summary['span_count']} spans, "
        f"wall-clock {wall * 1e3:.1f} ms",
        "critical-path breakdown (share of wall-clock):",
    ]
    entries = list(summary["buckets_s"].items())
    if float(summary["unattributed_s"]) > 0.0:
        entries.append(("unattributed", float(summary["unattributed_s"])))
    width = max((len(name) for name, _v in entries), default=10)
    for name, seconds in entries:
        pct = 100.0 * seconds / wall if wall > 0.0 else 0.0
        lines.append(f"  {name:<{width}}  {pct:5.1f}%  "
                     f"{seconds * 1e3:9.2f} ms")
    lines.append(f"categorized: "
                 f"{float(summary['categorized_frac']) * 100:.1f}% "
                 "of wall-clock attributed to named stages")
    shards = summary.get("shards")
    if shards:
        lines.append(
            f"shard imbalance: slowest is {shards['slowest']} at "
            f"{float(shards['max_busy_s']) * 1e3:.1f} ms busy vs "
            f"{float(shards['mean_busy_s']) * 1e3:.1f} ms mean "
            f"({float(shards['imbalance']):.2f}x)")
    return "\n".join(lines)
