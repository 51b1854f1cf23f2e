"""Submission validation and canonicalization for the analysis service.

A submission is a JSON object naming a *kind* of analysis plus its
parameters.  This module turns it into the exact
:class:`~repro.experiments.runner.Task` objects the CLIs build -- same
worker function, same argument tuple -- so:

* the **content-hash key** is identical to the CLI's, so the service's
  cache, single-flight dedupe, and any CLI sweep agree on what "the same
  question" means (the service keeps its own sharded store; only the
  keys are shared);
* the **result is byte-identical** to the CLI's (the differential test in
  ``tests/test_service.py`` asserts JSON-level equality), including with
  fault plans and ``shards=N``.

Kinds
-----
``nas``
    One NAS benchmark sweep cell per ``np`` value -- mirrors
    ``repro.tools.nas`` (benchmark, klass, np grid, niter, library,
    modified/nonblocking, faults + fault_seed, shards).
``micro``
    The Sec. 3 overlap micro-benchmark: one cell per inserted-computation
    value -- mirrors ``overlap_sweep_parallel``.
``paper``
    One rendered figure section of ``repro.tools.paper`` (text payload).
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing

from repro.experiments.nas_char import MPI_BENCHMARKS, nas_cell
from repro.experiments.runner import Task
from repro.runtime.launcher import shards_refusal

KINDS = ("nas", "micro", "paper")
KLASSES = ("S", "W", "A", "B")
LIBRARIES = ("paper", "openmpi", "mvapich2")

#: Upper bound on cells per submission: a "job" is one user question,
#: not a bulk import channel.
MAX_CELLS = 64


class SubmissionError(ValueError):
    """Invalid submission payload (maps to HTTP 400)."""


@dataclasses.dataclass(frozen=True)
class Submission:
    """A validated, canonicalized job request."""

    tenant: str
    kind: str
    priority: int
    label: str
    spec: "dict[str, typing.Any]"


def _require_str(payload: dict, field: str, default: "str | None" = None,
                 choices: "tuple[str, ...] | None" = None) -> str:
    value = payload.get(field, default)
    if not isinstance(value, str) or not value:
        raise SubmissionError(f"field {field!r} must be a non-empty string")
    if choices is not None and value not in choices:
        raise SubmissionError(
            f"field {field!r} must be one of {list(choices)}, got {value!r}")
    return value


def _require_int(payload: dict, field: str, default: int,
                 lo: int = 0, hi: int = 1_000_000) -> int:
    value = payload.get(field, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SubmissionError(f"field {field!r} must be an integer")
    if not lo <= value <= hi:
        raise SubmissionError(
            f"field {field!r} must be in [{lo}, {hi}], got {value}")
    return value


def _require_bool(payload: dict, field: str, default: bool = False) -> bool:
    value = payload.get(field, default)
    if not isinstance(value, bool):
        raise SubmissionError(f"field {field!r} must be a boolean")
    return value


def _parse_np(payload: dict) -> "list[int]":
    value = payload.get("np", 4)
    if isinstance(value, bool):
        raise SubmissionError("field 'np' must be an integer or list of them")
    if isinstance(value, int):
        value = [value]
    if (not isinstance(value, list) or not value
            or not all(isinstance(v, int) and not isinstance(v, bool)
                       and 1 <= v <= 4096 for v in value)):
        raise SubmissionError(
            "field 'np' must be a positive integer or non-empty list of them")
    return list(value)


def _parse_nas(payload: dict) -> "tuple[dict, list[Task], str]":
    from repro.tools.nas import _run_cell

    benchmark = _require_str(payload, "benchmark",
                             choices=tuple(sorted(MPI_BENCHMARKS)) + ("mg",))
    klass = _require_str(payload, "klass", "S", choices=KLASSES)
    nprocs = _parse_np(payload)
    niter = _require_int(payload, "niter", 2, lo=1, hi=1000)
    library = _require_str(payload, "library", "paper", choices=LIBRARIES)
    modified = _require_bool(payload, "modified")
    nonblocking = _require_bool(payload, "nonblocking")
    faults = payload.get("faults")
    if faults is not None and (not isinstance(faults, str) or not faults):
        raise SubmissionError("field 'faults' must be a spec string or null")
    fault_seed = _require_int(payload, "fault_seed", 0, lo=0, hi=2**31)
    shards = payload.get("shards")
    if shards is not None:
        shards = _require_int(payload, "shards", 1, lo=1, hi=64)
    if shards is not None:
        refusal = shards_refusal(nas_cell(benchmark, klass, niter)[1],
                                 watchdog=faults)
        if refusal is not None:
            raise SubmissionError(refusal)
    if faults is not None:
        # Fail a bad spec at submit time (HTTP 400), not in the worker.
        from repro.faults.plan import parse_fault_spec

        try:
            parse_fault_spec(faults, seed=fault_seed)
        except Exception as exc:
            raise SubmissionError(f"invalid 'faults' spec: {exc}") from exc
    spec = {
        "benchmark": benchmark, "klass": klass, "np": nprocs, "niter": niter,
        "library": library, "modified": modified, "nonblocking": nonblocking,
        "faults": faults, "fault_seed": fault_seed,
        "shards": shards,
    }
    # The exact argument tuple repro.tools.nas builds (emit_metrics=False:
    # the service's metrics live on the server, not inside the cells).
    tasks = [
        Task(_run_cell, (benchmark, klass, np, niter, library, modified,
                         nonblocking, False, faults, fault_seed, shards))
        for np in nprocs
    ]
    label = f"nas.{benchmark}.{klass}.x{len(nprocs)}"
    return spec, tasks, label


def _parse_micro(payload: dict) -> "tuple[dict, list[Task], str]":
    from repro.experiments.micro import PATTERNS
    from repro.experiments.runner import _sweep_point
    from repro.mpisim.config import library_config

    pattern = _require_str(payload, "pattern", choices=tuple(PATTERNS))
    nbytes = payload.get("nbytes", 4096)
    if isinstance(nbytes, bool) or not isinstance(nbytes, (int, float)) \
            or not 1 <= nbytes <= 2**32:
        raise SubmissionError("field 'nbytes' must be a number in [1, 2^32]")
    computes = payload.get("computes", [0.0])
    if (not isinstance(computes, list) or not computes
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool)
                       and 0 <= c <= 10 for c in computes)):
        raise SubmissionError(
            "field 'computes' must be a non-empty list of seconds in [0, 10]")
    library = _require_str(payload, "library", "mvapich2",
                           choices=("openmpi", "mvapich2"))
    iters = _require_int(payload, "iters", 50, lo=1, hi=10_000)
    warmup = _require_int(payload, "warmup", 3, lo=0, hi=1000)
    config = library_config(library)
    spec = {
        "pattern": pattern, "nbytes": float(nbytes),
        "computes": [float(c) for c in computes], "library": library,
        "iters": iters, "warmup": warmup,
    }
    tasks = [
        Task(_sweep_point,
             (pattern, float(nbytes), float(c), config, None, None,
              iters, warmup))
        for c in computes
    ]
    label = f"micro.{pattern}.{int(nbytes)}B.x{len(computes)}"
    return spec, tasks, label


def _parse_paper(payload: dict) -> "tuple[dict, list[Task], str]":
    from repro.tools.paper import _render_section, build_sections

    quick = _require_bool(payload, "quick", True)
    shards = payload.get("shards")
    if shards is not None:
        shards = _require_int(payload, "shards", 1, lo=1, hi=64)
    sections = sorted(build_sections(quick, shards))
    section = _require_str(payload, "section", choices=tuple(sections))
    spec = {"section": section, "quick": quick, "shards": shards}
    tasks = [Task(_render_section, (section, quick, shards))]
    return spec, tasks, f"paper.{section}"


_PARSERS = {"nas": _parse_nas, "micro": _parse_micro, "paper": _parse_paper}


def parse_submission(payload: object) -> "tuple[Submission, list[Task]]":
    """Validate a JSON submission; return it canonicalized plus its tasks."""
    if not isinstance(payload, dict):
        raise SubmissionError("submission body must be a JSON object")
    tenant = payload.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant or len(tenant) > 64:
        raise SubmissionError(
            "field 'tenant' must be a string of 1..64 characters")
    kind = _require_str(payload, "kind", "nas", choices=KINDS)
    priority = _require_int(payload, "priority", 0, lo=0, hi=9)
    spec, tasks, label = _PARSERS[kind](payload)
    if len(tasks) > MAX_CELLS:
        raise SubmissionError(
            f"submission expands to {len(tasks)} cells; limit is {MAX_CELLS}")
    sub = Submission(tenant=tenant, kind=kind, priority=priority,
                     label=label, spec=spec)
    return sub, tasks


def job_content_key(kind: str, tasks: "typing.Sequence[Task]") -> str:
    """One hash for the whole job: what single-flight dedupe keys on.

    Derived from the per-cell content hashes (which already cover
    function identity, arguments, and CACHE_VERSION), so two submissions
    asking the same question -- from *any* tenant, in any concurrent
    order -- collapse onto one execution.
    """
    h = hashlib.sha256()
    h.update(kind.encode("utf-8"))
    for task in tasks:
        h.update(task.key.encode("ascii"))
    return h.hexdigest()
