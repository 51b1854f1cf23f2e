"""The six benchmark workloads.

Each workload owns its inputs (made from ``--seed``), its set-up, one
*job* (the unit whose wall time is ``job_ms_p50``) and the correctness
checks on that job's output.  All loops are closed with one client: the
callers of this system are scripts and CLIs that wait for a reply.  The
service runs in its own process so the load generator does not share an
interpreter lock with it.

Why these six (one line each; ``BENCHMARK.json`` repeats it):

* ``halo_eager``      small eager messages -- per-call and per-stamp cost
                      in ``mpisim``/``core`` dominates, ``netsim`` is light;
* ``rendezvous_bulk`` 1 MiB pipelined-RDMA rendezvous -- engine dispatch
                      and NIC burst trains dominate, ``core`` is a minority;
* ``halo_sharded``    the ``halo_eager`` problem on two shard processes --
                      the only user of ``sim.parallel`` and ``netsim.wire``;
* ``paper_sweep``     all 15 figure sections -- many short simulations,
                      so build/finalize and per-task overhead matter;
* ``service_cold``    never-seen specs over HTTP -- validate, hash, queue,
                      crash-isolated worker, cache write;
* ``service_hot``     resubmitted specs -- the same cache layers, for reads.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import tempfile
import time
import typing

import layers
from spans import Spans

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


class JobOutcome(typing.NamedTuple):
    """What one timed job produced."""

    seconds: float  # wall time of the job
    events: int  # engine events retired (0 where the job cannot tell)
    key: object  # jobs with equal keys must produce equal digests
    digest: str  # sha256 of the job's canonical output
    problems: "tuple[str, ...]" = ()  # failed correctness checks


def sha256_json(obj: object) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def result_digest(result: typing.Any) -> str:
    """Digest of everything a ``RunResult`` reports to its user."""
    return sha256_json({
        "elapsed": result.elapsed,
        "finish": result.rank_finish_times,
        "reports": [rep.to_dict() if rep is not None else None
                    for rep in result.reports],
    })


class Workload:
    """Base class; subclasses fill in set-up, the job and its checks."""

    name = ""
    #: Modules a fresh interpreter must import before the first job; the
    #: set-up time includes importing them (see ``run.import_probe``).
    imports: "tuple[str, ...]" = ()
    #: Whether extra warm-up jobs leave the measured system as it was.  The
    #: noise gate (``run.wait_for_quiet``) probes with warm-up jobs, so it
    #: only runs where this holds.
    jobs_leave_no_state = True

    def __init__(self, seed: int, smoke: bool, spans: Spans,
                 workdir: str) -> None:
        self.seed = seed
        self.smoke = smoke
        self.spans = spans
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.make_inputs()

    # -- to override -------------------------------------------------------
    def make_inputs(self) -> None:
        """Derive the inputs from ``self.rng`` (same seed, same inputs)."""

    def inputs(self) -> "dict[str, object]":
        """The generated inputs, for the result file."""
        return {}

    def setup(self) -> None:
        """Everything before the first timed job, warm-up job included."""
        self.job(-1)

    def job(self, index: int) -> JobOutcome:
        raise NotImplementedError

    def reference_digests(self, keys: "set[object]") -> "dict[object, str]":
        """Digests the jobs owe, computed another way (after timing)."""
        return {}

    def teardown(self) -> None:
        """Stop every process set-up started and wait for it."""

    def layer_metrics(self, budget_s: float) -> "dict[str, float]":
        """The traced pass: per-layer metrics of this workload."""
        return {}


# ---------------------------------------------------------------------------
# run_app workloads
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class HaloSpec:
    """One ``run_app(halo_app, ...)`` problem."""

    library: str  # "mvapich2" | "openmpi"
    ranks: int
    steps: int
    nbytes: float
    compute_s: float

    def config(self) -> typing.Any:
        from repro.mpisim.config import mvapich2_like, openmpi_like

        return mvapich2_like() if self.library == "mvapich2" else openmpi_like()

    @property
    def app_args(self) -> tuple:
        return (self.steps, self.nbytes, self.compute_s)


class RunAppWorkload(Workload):
    """A single-process ``run_app`` job."""

    imports = ("repro.runtime.launcher", "repro.experiments.halo",
               "repro.mpisim.config", "repro.faults")
    spec: HaloSpec
    run_kwargs: "dict[str, object]" = {}

    def inputs(self) -> "dict[str, object]":
        return dataclasses.asdict(self.spec)

    def run(self, spec: "HaloSpec | None" = None, **extra: object) -> typing.Any:
        """``run_app`` on the workload's problem; ``extra`` overrides."""
        from repro.experiments.halo import halo_app
        from repro.runtime.launcher import run_app

        spec = spec or self.spec
        kwargs = dict(self.run_kwargs, **extra)
        config = kwargs.pop("config", None) or spec.config()
        return run_app(halo_app, spec.ranks, config, app_args=spec.app_args,
                       **kwargs)

    def events_of(self, result: typing.Any) -> int:
        return result.fabric.engine.processed_count

    def job(self, index: int) -> JobOutcome:
        from repro.faults import check_run_invariants

        with self.spans.span("run_app", "runtime", workload=self.name):
            t0 = time.perf_counter()
            result = self.run()
            seconds = time.perf_counter() - t0
        problems = tuple(check_run_invariants(result, raise_on_error=False))
        return JobOutcome(seconds, self.events_of(result), "job",
                          result_digest(result), problems)

    def layer_metrics(self, budget_s: float) -> "dict[str, float]":
        return layers.ladder(self, budget_s)


class HaloEager(RunAppWorkload):
    name = "halo_eager"

    def make_inputs(self) -> None:
        ranks, steps = (32, 6) if self.smoke else (256, 30)
        self.spec = HaloSpec(
            "mvapich2", ranks, steps,
            nbytes=4096.0 + 8 * self.rng.randrange(-16, 17),
            compute_s=round(20e-6 * (1 + self.rng.uniform(-0.05, 0.05)), 9),
        )


class RendezvousBulk(RunAppWorkload):
    name = "rendezvous_bulk"

    def make_inputs(self) -> None:
        ranks, steps = (8, 10) if self.smoke else (16, 100)
        # Stay at or just under 1 MiB: eight 128 KiB fragments per message
        # on every seed, so the job's cost does not move with the seed.
        self.spec = HaloSpec(
            "openmpi", ranks, steps,
            nbytes=float((1 << 20) - 64 * self.rng.randrange(0, 129)),
            compute_s=round(200e-6 * (1 + self.rng.uniform(-0.05, 0.05)), 9),
        )


class HaloSharded(RunAppWorkload):
    """``halo_eager``'s problem on two shard worker processes."""

    name = "halo_sharded"
    imports = RunAppWorkload.imports + ("repro.sim.parallel",
                                        "repro.netsim.differential")
    run_kwargs = {"shards": 2, "shard_backend": "process",
                  "shard_sync": "window"}

    def make_inputs(self) -> None:
        # Same generator and seed as halo_eager: the same simulated
        # problem, so the ratio of the two job_ms_p50 is wall-clock speedup.
        self.spec = HaloEager(self.seed, self.smoke, self.spans,
                              self.workdir).spec

    def events_of(self, result: typing.Any) -> int:
        return result.sync_stats["events"]

    def single_process_channel_run(self) -> typing.Any:
        """The run a sharded run owes bit-identical results to."""
        from repro.netsim.params import NetworkParams

        return self.run(shards=None,
                        params=NetworkParams(delivery="channel"))

    def reference_digests(self, keys: "set[object]") -> "dict[object, str]":
        from repro.netsim.differential import compare_sharded

        with self.spans.span("single-process channel run", "runtime"):
            single = self.single_process_channel_run()
        sharded = self.run()
        bad = [d.measure for d in compare_sharded(single, sharded)
               if not d.equal]
        if bad:
            return {"job": f"diverged from single-process run: {bad[:5]}"}
        return {"job": result_digest(single)}

    def layer_metrics(self, budget_s: float) -> "dict[str, float]":
        return layers.sharded(self, budget_s)


# ---------------------------------------------------------------------------
# paper sweep
# ---------------------------------------------------------------------------
_FOOTER = "\n_(regenerated in"


def run_paper_cli(argv: "list[str]", out_path: str) -> str:
    """``repro.tools.paper.main(argv)``; returns its text minus the footer."""
    from repro.tools import paper

    with contextlib.redirect_stdout(io.StringIO()):
        code = paper.main(argv + ["--out", out_path])
    if code != 0:
        raise RuntimeError(f"repro.tools.paper exited with {code}")
    with open(out_path, encoding="utf-8") as fh:
        text = fh.read()
    # The last line reports host time; everything above it is deterministic.
    return text[:text.rfind(_FOOTER)]


class PaperSweep(Workload):
    """The paper CLI, uncached and serial.

    The inputs are the paper's own figure specifications, so ``--seed``
    does not alter them; it is recorded all the same.
    """

    name = "paper_sweep"
    imports = ("repro.tools.paper",)

    def make_inputs(self) -> None:
        self.argv = ["--no-cache", "--jobs", "1"]
        if self.smoke:
            self.argv += ["--quick", "--only", "fig03,fig05,fig10"]
        self.out_path = os.path.join(self.workdir, "paper.md")

    def inputs(self) -> "dict[str, object]":
        return {"argv": self.argv}

    def job(self, index: int) -> JobOutcome:
        with self.spans.span("paper.main", "experiments"):
            t0 = time.perf_counter()
            text = run_paper_cli(self.argv, self.out_path)
            seconds = time.perf_counter() - t0
        problems = () if "## fig03" in text else ("fig03 section missing",)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return JobOutcome(seconds, 0, "job", digest, problems)

    def layer_metrics(self, budget_s: float) -> "dict[str, float]":
        return layers.paper(self, budget_s)


# ---------------------------------------------------------------------------
# service
# ---------------------------------------------------------------------------
class Server:
    """``python -m repro.tools.serve`` in a subprocess of its own."""

    def __init__(self, cache_dir: str, log_path: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.serve", "--port", "0",
             "--workers", "1", "--cache-dir", cache_dir],
            stdout=subprocess.PIPE, stderr=self._log, env=env, text=True,
        )
        try:
            self.url = self._read_url()
        except BaseException:
            self.stop()
            raise

    def _read_url(self) -> str:
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r"http://\S+", line)
        if match is None:
            raise RuntimeError(f"server did not announce a URL: {line!r}")
        return match.group(0)

    def stop(self) -> None:
        """Interrupt the server (it shuts its workers down) and reap it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


class ServiceWorkload(Workload):
    """Shared by the cold and hot service workloads."""

    imports = ("repro.service.client",)
    #: Every job grows the server's job table and cache, and its requests
    #: get slower and its memory larger with them: probing would move the
    #: numbers the window then reports.
    jobs_leave_no_state = False
    #: Specs executed during set-up (the hot workload resubmits them).
    prefill = 0

    def make_inputs(self) -> None:
        self.base_nbytes = 2048 + 64 * self.rng.randrange(0, 64)
        self.compute_s = round(20e-6 * (1 + self.rng.uniform(-0.05, 0.05)), 9)
        self.iters = 10 if self.smoke else 50
        self.server: "Server | None" = None
        self.client: typing.Any = None
        self.fresh = 0

    def inputs(self) -> "dict[str, object]":
        return {"spec0": self.spec(0), "prefill": self.prefill}

    def spec(self, index: int) -> "dict[str, object]":
        """Spec ``index`` (may be negative): each size is a new content hash."""
        return {"kind": "micro", "pattern": "isend_irecv",
                "nbytes": self.base_nbytes + index,
                "computes": [0.0, self.compute_s], "iters": self.iters}

    def setup(self) -> None:
        from repro.service.client import ServiceClient

        home = tempfile.mkdtemp(dir=self.workdir, prefix="service-")
        self.server = Server(os.path.join(home, "cache"),
                             os.path.join(home, "server.log"))
        self.client = ServiceClient(self.server.url)
        if self.client.healthz().status != 200:
            raise RuntimeError("service is not healthy")
        for index in range(self.prefill):
            self.cold_job(index)
        self.job(-1)

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.server = None

    def fresh_spec(self) -> int:
        """Index of a spec nothing has submitted yet (warm-ups, probes).

        Negative, so the timed jobs' specs 0, 1, 2 ... are the same
        whatever ran before them.
        """
        self.fresh -= 1
        return self.fresh

    def cold_job(self, index: int) -> JobOutcome:
        """POST a never-seen spec, wait for it, GET its rows."""
        spans, client = self.spans, self.client
        spec = self.spec(index)
        t0 = time.perf_counter()
        with spans.span("submit", "service"):
            sub = client.submit(spec)
        if sub.status != 202:
            raise RuntimeError(f"cold submit: HTTP {sub.status} {sub.body}")
        job_id = sub.body["job_id"]
        with spans.span("wait", "service"):
            final = client.wait(job_id, timeout=60.0, poll=0.002)
            seen_unix = time.time()
        if spans.enabled:
            self._server_spans(final.body, seen_unix)
        if final.body.get("state") != "done":
            raise RuntimeError(f"job {job_id} ended {final.body.get('state')}")
        with spans.span("result", "service"):
            res = client.result(job_id)
        seconds = time.perf_counter() - t0
        if res.status != 200:
            raise RuntimeError(f"result: HTTP {res.status} {res.body}")
        return JobOutcome(seconds, 0, index, sha256_json(res.body["rows"]))

    def _server_spans(self, status: "dict[str, typing.Any]",
                      seen_unix: float) -> None:
        """Server-reported queue/execute phases, on the bench clock."""
        offset = time.perf_counter() - time.time()
        created = status["created_unix"] + offset
        started = status["started_unix"] + offset
        finished = status["finished_unix"] + offset
        self.spans.add("queue", "service.queue", created, started)
        self.spans.add("execute", "service.execute", started, finished)
        self.spans.add("notify", "service.notify", finished,
                       seen_unix + offset)

    def hot_job(self, index: int) -> JobOutcome:
        """Resubmit an executed spec: POST answers 200 ``cached``, then GET."""
        spans, client = self.spans, self.client
        spec = self.spec(index)
        t0 = time.perf_counter()
        with spans.span("hot submit", "service"):
            sub = client.submit(spec)
        if sub.status != 200 or not sub.body.get("cached"):
            raise RuntimeError(f"hot submit: HTTP {sub.status} {sub.body}")
        with spans.span("hot result", "service"):
            res = client.result(sub.body["job_id"])
        seconds = time.perf_counter() - t0
        if res.status != 200:
            raise RuntimeError(f"result: HTTP {res.status} {res.body}")
        return JobOutcome(seconds, 0, index, sha256_json(res.body["rows"]))

    def direct_rows(self, index: int) -> object:
        """The same ``parse_submission`` tasks run in this process."""
        from repro.service.jobs import parse_submission

        _sub, tasks = parse_submission(self.spec(index))
        return json.loads(json.dumps([task.run() for task in tasks]))

    def reference_digests(self, keys: "set[object]") -> "dict[object, str]":
        return {key: sha256_json(self.direct_rows(typing.cast(int, key)))
                for key in keys}

    def layer_metrics(self, budget_s: float) -> "dict[str, float]":
        return layers.service(self, budget_s)


class ServiceCold(ServiceWorkload):
    name = "service_cold"
    #: A probe adds a few dozen entries to the server's job table; against
    #: a 35 ms job that is nothing, so the noise gate may run here.
    jobs_leave_no_state = True

    def job(self, index: int) -> JobOutcome:
        return self.cold_job(index if index >= 0 else self.fresh_spec())


class ServiceHot(ServiceWorkload):
    name = "service_hot"

    def make_inputs(self) -> None:
        super().make_inputs()
        self.prefill = 8 if self.smoke else 32

    def job(self, index: int) -> JobOutcome:
        return self.hot_job(index % self.prefill)


WORKLOADS: "dict[str, type[Workload]]" = {
    cls.name: cls
    for cls in (HaloEager, RendezvousBulk, HaloSharded, PaperSweep,
                ServiceCold, ServiceHot)
}
