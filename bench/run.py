#!/usr/bin/env python3
"""The repository's benchmark: six workloads, end to end and per layer.

Four of the six are named in ``BENCHMARK.json`` and gate later changes;
``halo_sharded`` and ``service_hot`` run the same way but only on request
or when no ``--workload`` is given (see ``bench/README.md`` for why).

::

    python3 bench/run.py                         # every workload, untraced
    python3 bench/run.py --workload halo_eager --seed 1 --seconds 10
    python3 bench/run.py --workload service_cold --trace 1   # per-layer pass
    python3 bench/run.py --smoke                 # everything at ~1/20 size
    python3 bench/run.py --compare bench/out/a bench/out/b

One invocation with one ``--workload`` is one *run*: it makes the inputs
from ``--seed``, sets up (three times over; ``setup_s`` is the median),
runs jobs closed-loop with one client for ``--seconds``, checks every
job's output, prints each metric by name with its unit, writes a result
file with provenance under ``bench/out/`` and ends its standard output
with one JSON line (the contract in ``BENCHMARK.json``).  With several
workloads each runs in a child process of its own, so that memory and
warm state do not carry over from one to the next.

``--trace 0`` reports the end-to-end metrics with span recording off.
``--trace 1`` is a separate pass that reports the per-layer metrics and
writes ``bench/out/<workload>.trace.json``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import typing

import compare
from spans import Spans
from workloads import SRC, WORKLOADS, sha256_json

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
CONTRACT = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED = os.path.join(BENCH, "expected.json")

#: End-to-end metrics reported beside the contract's (which must apply to
#: every workload and never read 0): name -> (unit, better, bound).
EXTRA_END_TO_END = {
    "job_ms_p50": ("ms", "lower", 0.10),
    "job_ms_p95": ("ms", "lower", 0.15),
    "jobs_per_s": ("1/s", "higher", 0.10),
    "events_per_s": ("1/s", "higher", 0.10),
    "failed_ratio": ("ratio", "lower", 0.0),
    "wrong_results": ("count", "lower", 0.0),
}
LOOP = {"kind": "closed", "clients": 1}
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3


def quartiles(values: "typing.Sequence[float]") -> "dict[str, float]":
    """Median, quartiles and lowest decile with the sample count."""
    if len(values) < 2:
        p10 = q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
        # Inclusive: never extrapolates below the fastest sample.
        p10 = statistics.quantiles(values, n=10, method="inclusive")[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "p10": p10, "n": len(values)}


def calibrate() -> float:
    """Milliseconds a fixed pure-Python spin loop takes (machine drift).

    Recorded before and after each workload; never used to normalise.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i & 7
    return (time.perf_counter() - t0) * 1e3


def import_probe(modules: "typing.Sequence[str]") -> None:
    """Import the workload's modules in a fresh interpreter.

    Set-up repeats inside one process, where a second ``import`` is free;
    this keeps the import cost a later change might add inside ``setup_s``.
    """
    code = "import sys; sys.path.insert(0, sys.argv[1]); import " + \
        ", ".join(modules)
    subprocess.run([sys.executable, "-c", code, SRC], check=True)


def provenance() -> "dict[str, object]":
    def git(*argv: str) -> "str | None":
        try:
            done = subprocess.run(["git", *argv], cwd=ROOT, text=True,
                                  capture_output=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "started_utc": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def fresh_path(directory: str, stem: str, suffix: str) -> str:
    """A path under ``directory`` that does not exist yet."""
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S")
    path = os.path.join(directory, f"{stem}-{stamp}-{os.getpid()}{suffix}")
    serial = 0
    while os.path.exists(path):
        serial += 1
        path = os.path.join(
            directory, f"{stem}-{stamp}-{os.getpid()}.{serial}{suffix}")
    return path


# ---------------------------------------------------------------------------
# One run of one workload
# ---------------------------------------------------------------------------
class Loop(typing.NamedTuple):
    outcomes: list  # JobOutcome of every job that returned
    errors: "list[str]"  # one line per job that raised


def job_loop(workload: typing.Any, seconds: float, first_job: int) -> Loop:
    """Closed loop, one client: the next job starts when the last returned."""
    outcomes, errors = [], []
    index = first_job
    # Park everything set-up allocated in the permanent generation, so the
    # collection before each job costs microseconds and only ever frees the
    # previous job's garbage.
    gc.collect()
    gc.freeze()
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        workload.spans.job = index
        try:
            outcomes.append(workload.job(index))
        except Exception as exc:  # a failed job is counted, not fatal
            errors.append(f"job {index}: {type(exc).__name__}: {exc}")
            if len(errors) >= 5 and not outcomes:
                break  # nothing works; do not spin until the deadline
        index += 1
        if time.perf_counter() >= deadline and index - first_job >= 2:
            break
    workload.spans.job = -1
    return Loop(outcomes, errors)


def count_wrong(workload: typing.Any, outcomes: list,
                inject_wrong: bool) -> "tuple[int, list[str]]":
    """Jobs whose output fails a check; each is described in one line."""
    if inject_wrong and outcomes:
        outcomes[-1] = outcomes[-1]._replace(digest="injected-wrong-result")
    keys = {o.key for o in outcomes}
    try:
        expected = workload.reference_digests(keys)
    except Exception as exc:
        return len(outcomes), [f"reference run failed: {exc!r}"]
    wrong, notes = 0, []
    for outcome in outcomes:
        # Without an independent reference, jobs of one run must agree.
        want = expected.setdefault(outcome.key, outcome.digest)
        if outcome.problems or outcome.digest != want:
            wrong += 1
            notes.append(f"job key {outcome.key!r}: " + "; ".join(
                outcome.problems or (f"digest {outcome.digest[:12]} != "
                                     f"expected {want[:12]}",)))
    return wrong, notes[:10]


def pin_digest(outcomes: list) -> str:
    """Digest of the run's first eight distinct outputs, for pinning."""
    first: "dict[object, str]" = {}
    for outcome in outcomes:
        first.setdefault(outcome.key, outcome.digest)
    return sha256_json([first[key] for key in sorted(first)[:8]])


#: The noise gate (``wait_for_quiet``).
QUIET_FACTOR = 1.2  # "disturbed" = this much slower than the best pace seen
QUIET_PROBE_S = 0.5  # warm-up jobs run this long to read the current pace
QUIET_SLEEP_S = 4.0
QUIET_RUN_CAP_S = 40.0  # most one run waits
QUIET_CHECKOUT_CAP_S = 80.0  # most all runs of one workload wait, in total


def wait_for_quiet(workload: typing.Any) -> "dict[str, float]":
    """Hold the timed window back while the machine is disturbed.

    This sandbox has spells of about a minute in which everything runs
    25-55 % slower (a neighbour on the host; the guest sees no steal
    time).  A run that starts inside one would report the neighbour, not
    the program.  So before the window the run reads its current pace
    from a few warm-up jobs and compares it with the best pace any run of
    this workload has had in this checkout (``bench/out/quiet-*.json``);
    while it is more than QUIET_FACTOR slower it sleeps and reads again.
    Waiting is capped per run and per checkout, so a machine that simply
    got slower is measured as it is.  The window itself is never edited:
    every job in it counts.
    """
    path = os.path.join(OUT, f"quiet-{workload.name}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)
    except (FileNotFoundError, ValueError):
        state = {"best_pace_s": float("inf"), "waited_s": 0.0}
    t0 = None
    while True:
        paces = []
        deadline = time.perf_counter() + QUIET_PROBE_S
        while not paces or time.perf_counter() < deadline:
            paces.append(workload.job(-1).seconds)
        pace = statistics.median(paces)
        t0 = t0 or time.perf_counter()  # the first reading is not waiting
        waited = time.perf_counter() - t0
        state["best_pace_s"] = min(state["best_pace_s"], pace)
        if (pace <= QUIET_FACTOR * state["best_pace_s"]
                or waited >= QUIET_RUN_CAP_S
                or state["waited_s"] + waited >= QUIET_CHECKOUT_CAP_S):
            break
        time.sleep(QUIET_SLEEP_S)
    state["waited_s"] += waited
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state, fh)
    return {"noise_wait_s": waited, "pace_s": pace,
            "best_pace_s": state["best_pace_s"]}


class Measured(typing.NamedTuple):
    """What one run observed, before it is turned into metrics."""

    inputs: "dict[str, object]"
    setup_s: "list[float]"
    loop: Loop
    wrong: int
    notes: "list[str]"
    layer_values: "dict[str, float]"  # traced pass only
    extra: "dict[str, object]"  # more fields for the result file


def measure(args: argparse.Namespace, cls: type, spans: typing.Any,
            workdir: str) -> Measured:
    traced = bool(args.trace)
    workload = None
    setup_s: "list[float]" = []
    layer_values: "dict[str, float]" = {}
    extra: "dict[str, object]" = {}
    try:
        # Set up SETUPS times over and report the median; the last set-up
        # is the one the jobs use.
        for _ in range(1 if (args.smoke or traced) else SETUPS):
            if workload is not None:
                workload.teardown()
            t0 = time.perf_counter()
            import_probe(cls.imports)
            workload = cls(args.seed, args.smoke, spans, workdir)
            workload.setup()
            setup_s.append(time.perf_counter() - t0)

        if not traced:
            if not args.smoke and workload.jobs_leave_no_state:
                extra.update(wait_for_quiet(workload))
            loop = job_loop(workload, args.seconds, 0)
        else:
            # A short untraced loop, the same loop with spans on, then the
            # layer drivers share the time an untraced run spends on jobs.
            loop = job_loop(workload, args.seconds / 4, 0)
            spans.enabled = True
            with spans.span("traced jobs", "bench"):
                traced_loop = job_loop(workload, args.seconds / 4,
                                       len(loop.outcomes) + len(loop.errors))
            with spans.span("layer drivers", "bench"):
                layer_values = workload.layer_metrics(args.seconds / 2)
            spans.enabled = False
            if loop.outcomes and traced_loop.outcomes:
                layer_values["bench.trace_overhead_ratio"] = (
                    statistics.median(o.seconds for o in traced_loop.outcomes)
                    / statistics.median(o.seconds for o in loop.outcomes))
            loop.errors.extend(traced_loop.errors)
            extra["traced_jobs"] = len(traced_loop.outcomes)
        wrong, notes = count_wrong(workload, loop.outcomes, args.inject_wrong)
        return Measured(workload.inputs(), setup_s, loop, wrong, notes,
                        layer_values, extra)
    finally:
        if workload is not None:
            workload.teardown()


def run_workload(args: argparse.Namespace, name: str,
                 contract: "dict[str, typing.Any]") -> "dict[str, typing.Any]":
    traced = bool(args.trace)
    spans = Spans(enabled=False)
    workdir = tempfile.mkdtemp(dir=OUT, prefix=f"work-{name}-")
    # Everything the program or the benchmark writes stays in the checkout.
    tempfile.tempdir = workdir
    os.environ["TMPDIR"] = workdir
    wall0 = time.perf_counter()
    calib = [calibrate()]
    try:
        seen = measure(args, WORKLOADS[name], spans, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calib.append(calibrate())

    outcomes, errors = seen.loop
    if not outcomes:
        raise RuntimeError("no job completed: " + "; ".join(errors))
    attempted, failed, wrong = len(outcomes) + len(errors), len(errors), seen.wrong
    durations = [o.seconds for o in outcomes]
    digest = pin_digest(outcomes)
    pinned = load_expected().get(name, {}).get(str(args.seed))
    digest_changed = int(not args.smoke and pinned is not None
                         and pinned != digest)

    job_ms = quartiles([s * 1e3 for s in durations])
    values: "dict[str, float]" = {
        "setup_s": statistics.median(seen.setup_s),
        "job_ms_p10": job_ms["p10"],
        "job_ms_p50": job_ms["median"],
        "jobs_per_s": (len(outcomes) - wrong) / sum(durations),
        "peak_rss_mb": peak_rss_mb(),  # after teardown: children are reaped
        "failed_ratio": failed / attempted,
        "wrong_results": wrong,
    }
    if len(durations) >= 200:  # leaves ten samples beyond the percentile
        values["job_ms_p95"] = statistics.quantiles(durations, n=20)[-1] * 1e3
    if outcomes[0].events:
        values["events_per_s"] = statistics.median(
            o.events / o.seconds for o in outcomes)
    extra = dict(seen.extra)
    if traced:
        layer_values = dict(seen.layer_values)
        layer_values["bench.calib_ms"] = statistics.mean(calib)
        layer_values["runtime.report_digest_changed"] = digest_changed
        declared = {m["name"] for m in contract["per_layer"]}
        unknown = sorted(set(layer_values) - declared)
        if unknown:
            raise RuntimeError(f"metrics not in BENCHMARK.json: {unknown}")
        # A layer this workload does not exercise reads 0.
        reported = {m["name"]: float(layer_values.get(m["name"], 0.0))
                    for m in contract["per_layer"]}
        trace_path = os.path.join(args.out_dir, f"{name}.trace.json")
        spans.write(trace_path, f"bench {name}")
        extra["trace_file"] = os.path.relpath(trace_path, ROOT)
        extra["self_time_s_by_layer"] = spans.self_time_by_layer()
    else:
        reported = {m["name"]: values[m["name"]]
                    for m in contract["end_to_end"]}

    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}
    units.update({k: v[0] for k, v in EXTRA_END_TO_END.items()})
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(traced),
        "smoke": args.smoke,
        "loop": LOOP,
        "inputs": seen.inputs,
        "correct": wrong == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "wrong_results": wrong,
        "notes": seen.notes + errors[:10],
        "jobs": len(outcomes),
        "job_ms": job_ms,
        "setup_s_samples": seen.setup_s,
        "calib_ms": calib,
        "report_digest": digest,
        "report_digest_changed": digest_changed,
        "wall_s": time.perf_counter() - wall0,
        "end_to_end": {k: {"value": v, "unit": units[k]}
                       for k, v in values.items()},
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in reported.items()},
        **extra,
    }


def load_expected() -> "dict[str, dict[str, str]]":
    try:
        with open(EXPECTED, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def print_result(result: "dict[str, typing.Any]") -> None:
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"{LOOP['kind']} loop, {LOOP['clients']} client  "
          f"{result['jobs']} jobs in {result['wall_s']:.1f} s wall ==")
    shown = dict(result["end_to_end"]) if not result["trace"] else {}
    shown.update(result["metrics"])
    for metric, entry in shown.items():
        if result["trace"] and entry["value"] == 0:
            continue  # a layer this workload does not exercise
        line = f"{metric:<42s} {entry['value']:>14.6g} {entry['unit']}"
        if metric == "job_ms_p50":
            q = result["job_ms"]
            line += f"   [q1 {q['q1']:.6g}, q3 {q['q3']:.6g}, n={q['n']}]"
        print(line)
    for note in result["notes"]:
        print(f"  ! {note}")


def contract_line(result: "dict[str, typing.Any]") -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------
def make_parser(names: "list[str]") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (default 0; 1 is the held-out seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of timed jobs per run (default: "
                        "run_seconds of BENCHMARK.json; 0.3 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced per-layer pass")
    parser.add_argument("--layers", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="workloads at about 1/20 size, for the tests")
    parser.add_argument("--out-dir", default=OUT,
                        help="where result files go (default bench/out)")
    parser.add_argument("--pin", action="store_true",
                        help="record this run's report digests in "
                        "bench/expected.json")
    parser.add_argument("--inject-wrong", action="store_true",
                        help="corrupt one job's output digest (tests that "
                        "the checks notice)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two sets of result files (files or "
                        "directories) instead of running")
    return parser


def main(argv: "typing.Sequence[str] | None" = None) -> int:
    with open(CONTRACT, encoding="utf-8") as fh:
        contract = json.load(fh)
    names = list(WORKLOADS)
    args = make_parser(names).parse_args(argv)
    if args.compare:
        return compare.main(args.compare[0], args.compare[1], contract,
                            EXTRA_END_TO_END, names)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Leave through the finally blocks (server and worker teardown) when
    # told to stop, instead of dying with children still running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds is None:
        args.seconds = 0.3 if args.smoke else float(contract["run_seconds"])
    os.makedirs(OUT, exist_ok=True)
    os.makedirs(args.out_dir, exist_ok=True)

    chosen = args.workload or names
    if len(chosen) > 1:
        # One child per workload: peak memory, imports and allocator state
        # of one workload must not leak into the next one's numbers.
        passthrough = strip_workloads(
            list(argv if argv is not None else sys.argv[1:]))
        code = 0
        for name in chosen:
            sys.stdout.flush()
            child = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), *passthrough,
                 "--workload", name])
            try:
                code = child.wait() or code
            finally:
                if child.poll() is None:  # we are being stopped: pass it on
                    child.terminate()
                    child.wait()
        return code

    name = chosen[0]
    host = provenance()  # before the run: it records the load at start
    result = run_workload(args, name, contract)
    result["provenance"] = host
    if args.pin and not args.smoke:
        expected = load_expected()
        expected.setdefault(name, {})[str(args.seed)] = result["report_digest"]
        with open(EXPECTED, "w", encoding="utf-8") as fh:
            json.dump(expected, fh, indent=2, sort_keys=True)
            fh.write("\n")
    path = fresh_path(args.out_dir, name, ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print_result(result)
    print(f"result file: {os.path.relpath(path, ROOT)}")
    print(contract_line(result))
    return 0 if result["correct"] else 1


def strip_workloads(argv: "list[str]") -> "list[str]":
    """``argv`` without its ``--workload NAME`` pairs."""
    out, skip = [], False
    for arg in argv:
        if skip:
            skip = False
        elif arg == "--workload":
            skip = True
        elif not arg.startswith("--workload="):
            out.append(arg)
    return out


if __name__ == "__main__":
    raise SystemExit(main())
