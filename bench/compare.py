"""``run.py --compare A B``: noise-aware verdicts between two sets of runs.

``A`` (the parent) and ``B`` (the change) are result files or directories
of result files written by ``run.py``; every untraced run found is one
sample.  For each end-to-end metric on each workload the verdict is

* ``worse`` / ``better`` -- B's median differs from A's by more than the
  metric's bound (``BENCHMARK.json``), in that direction;
* ``same`` -- it does not;
* ``unresolved`` -- the run-to-run spread (the wider interquartile range
  of the two sets, as a share of A's median) exceeds the bound and the
  two sets' ranges overlap, or a side has a single run and the medians
  differ by more than the bound: the data cannot tell.

A bound of 0 is absolute (failed or wrong jobs): any increase is worse.
"""

from __future__ import annotations

import json
import os
import statistics
import typing

Runs = typing.Dict[str, typing.Dict[str, typing.List[float]]]


def load_runs(path: str) -> Runs:
    """``{workload: {metric: [value per run]}}`` from a file or directory."""
    if os.path.isdir(path):
        files = sorted(os.path.join(path, name) for name in os.listdir(path)
                       if name.endswith(".json")
                       and not name.endswith(".trace.json"))
    else:
        files = [path]
    runs: Runs = {}
    for file in files:
        with open(file, encoding="utf-8") as fh:
            result = json.load(fh)
        if not isinstance(result, dict) or result.get("trace") != 0:
            continue
        metrics = runs.setdefault(result["workload"], {})
        for name, entry in result["end_to_end"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return runs


def spread_of(values: "list[float]") -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(a: "list[float]", b: "list[float]", better: str,
            bound: float) -> "tuple[str, float]":
    """Verdict and B's relative change (positive = worse)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = med_b - med_a if better == "lower" else med_a - med_b
    if bound == 0.0:
        return ("worse" if worse_by > 0 else
                "better" if worse_by < 0 else "same"), worse_by
    change = worse_by / abs(med_a) if med_a else 0.0
    if min(len(a), len(b)) < 2:
        return ("same" if abs(change) <= bound else "unresolved"), change
    spread = max(spread_of(a), spread_of(b)) / abs(med_a)
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if spread > bound and overlap:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def main(path_a: str, path_b: str, contract: "dict[str, typing.Any]",
         extra: "dict[str, tuple[str, str, float]]",
         workloads: "list[str]") -> int:
    rules = {m["name"]: (m["unit"], m["better"], m["bound"])
             for m in contract["end_to_end"]}
    rules.update(extra)
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    print(f"{'workload':16s} {'metric':14s} {'A median':>12s} {'n':>3s} "
          f"{'B median':>12s} {'n':>3s} {'change':>8s} {'bound':>6s}  verdict")
    worse = 0
    for workload in workloads:
        for metric, (unit, better, bound) in rules.items():
            a = runs_a.get(workload, {}).get(metric)
            b = runs_b.get(workload, {}).get(metric)
            if not a or not b:
                continue
            word, change = verdict(a, b, better, bound)
            worse += word == "worse"
            shown = f"{change:+8.1%}" if bound else f"{change:+8.4g}"
            print(f"{workload:16s} {metric:14s} "
                  f"{statistics.median(a):12.6g} {len(a):3d} "
                  f"{statistics.median(b):12.6g} {len(b):3d} "
                  f"{shown} {bound:6.2f}  {word}  ({unit}, {better} is better)")
    return 1 if worse else 0
