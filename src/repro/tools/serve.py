"""CLI: run the overlap-analysis job service.

::

    python -m repro.tools.serve --port 8080 --workers 4 \\
        --cache-dir /var/cache/repro --metrics-dir /var/run/repro

    # CI / self-test: start a real server on a loopback port, drive a
    # tiny LU job through submit -> poll -> result -> metrics -> warm
    # resubmit, then a few cold micro jobs (which must share warm
    # workers), and exit 0 only if every step behaved.
    python -m repro.tools.serve --smoke

The server answers on ``/v1/jobs`` (see ``docs/service.md`` for the API
reference); ``repro.tools.watch --url http://host:port`` tails its
progress endpoints like any other sweep.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import typing

from repro.service.core import OverlapService
from repro.service.queue import QuotaConfig
from repro.service.server import ServiceHTTPServer


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.serve",
        description="Serve overlap-analysis jobs over HTTP/JSON.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="TCP port (0 picks a free one)")
    parser.add_argument("--workers", type=int, default=2,
                        help="concurrent job executions (each runs its "
                        "job's cells in a supervised worker process that "
                        "is reused between cells)")
    parser.add_argument("--cache-dir", default=None,
                        help="result-cache root (default: "
                        "$REPRO_CACHE_DIR or .repro_cache)")
    parser.add_argument("--cache-max-entries", type=int, default=None,
                        help="LRU bound on cached results "
                        "(default unbounded)")
    parser.add_argument("--cache-max-bytes", type=int, default=None,
                        help="LRU byte bound on cached results")
    parser.add_argument("--metrics-dir", default=None,
                        help="publish service + per-job sweep.json/"
                        "metrics.om artifacts here")
    parser.add_argument("--trace-dir", default=None,
                        help="record host-time spans per job (accept -> "
                        "queue -> execute -> shards) and write one merged "
                        "Perfetto trace_event JSON per execution here; also "
                        "enables GET /v1/jobs/{id}/trace")
    parser.add_argument("--trace", action="store_true",
                        help="enable span tracing and the trace endpoint "
                        "without writing trace files")
    parser.add_argument("--max-queued-per-tenant", type=int, default=64)
    parser.add_argument("--max-running-per-tenant", type=int, default=2)
    parser.add_argument("--max-queued-total", type=int, default=1024)
    parser.add_argument("--smoke", action="store_true",
                        help="start on a loopback port, run the end-to-end "
                        "self-test, and exit")
    return parser


def build_service(args: argparse.Namespace) -> OverlapService:
    return OverlapService(
        cache_root=args.cache_dir,
        workers=args.workers,
        quotas=QuotaConfig(
            max_queued_per_tenant=args.max_queued_per_tenant,
            max_running_per_tenant=args.max_running_per_tenant,
            max_queued_total=args.max_queued_total,
        ),
        metrics_dir=args.metrics_dir,
        cache_max_entries=args.cache_max_entries,
        cache_max_bytes=args.cache_max_bytes,
        trace_dir=args.trace_dir,
        trace=args.trace,
    )


async def _serve_forever(service: OverlapService, host: str,
                         port: int) -> None:
    server = ServiceHTTPServer(service, host, port)
    bound = await server.start()
    service.start()
    print(f"repro.service listening on http://{host}:{bound} "
          f"({service.workers} workers, cache at {service.cache.root})")
    try:
        await asyncio.Event().wait()  # serve until interrupted
    finally:
        await server.close()
        service.shutdown()


def run_smoke(args: argparse.Namespace) -> int:
    """End-to-end self-test against a real loopback server."""
    import tempfile

    from repro.service.client import ServiceClient
    from repro.service.server import ServerThread
    from repro.tools import watch

    failures: "list[str]" = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        service = OverlapService(cache_root=f"{tmp}/cache", workers=2,
                                 metrics_dir=f"{tmp}/metrics",
                                 trace_dir=f"{tmp}/traces")
        spec = {"tenant": "smoke", "kind": "nas", "benchmark": "lu",
                "klass": "S", "np": 2, "niter": 1}
        with ServerThread(service, host=args.host) as server:
            client = ServiceClient(server.url)
            health = client.healthz()
            check(health.status == 200 and health.body.get("ok") is True,
                  "GET /healthz")

            sub = client.submit(spec)
            check(sub.status == 202, f"POST /v1/jobs -> 202 (got {sub.status})")
            job_id = sub.body["job_id"]
            final = client.wait(job_id, timeout=120.0)
            check(final.body.get("state") == "done",
                  f"job completes (state {final.body.get('state')})")

            result = client.result(job_id)
            rows = result.body.get("rows", [])
            check(result.status == 200 and len(rows) == 1
                  and rows[0].get("reports"),
                  "GET result returns report rows")

            streamed = client.stream_result(job_id)
            check(len(streamed) == 2 and streamed[1] == rows[0],
                  "streamed NDJSON rows match paged rows")

            trace = client.request("GET", f"/v1/jobs/{job_id}/trace")
            check(trace.status == 200
                  and bool(trace.body.get("traceEvents")),
                  "GET trace returns a Perfetto timeline")
            if trace.status == 200:
                from repro.tracing import validate_trace
                check(validate_trace(trace.body) == [],
                      "trace is structurally valid")

            metrics = client.metrics_text()
            check("repro_service_submissions" in metrics
                  and "repro_cache_lookups" in metrics,
                  "GET /v1/metrics exposes service counters")

            warm = client.submit(spec)
            check(warm.status == 200 and warm.body.get("cached") is True,
                  "warm resubmit is a cache hit")
            warm_rows = client.result(warm.body["job_id"]).body.get("rows")
            check(json.dumps(warm_rows, sort_keys=True)
                  == json.dumps(rows, sort_keys=True),
                  "cached rows identical to executed rows")

            # Cold jobs run on warm workers: N never-seen jobs may cost
            # at most one fork per service worker, not one per cell.
            cold = 6
            for index in range(cold):
                _sub, done = client.submit_and_wait(
                    {"tenant": "smoke", "kind": "micro",
                     "pattern": "isend_irecv", "nbytes": 1024 + index,
                     "computes": [0.0, 1e-5], "iters": 3}, timeout=60.0)
                check(done.body.get("state") == "done",
                      f"cold micro job {index} completes")
            spawns = [float(line.split()[-1])
                      for line in client.metrics_text().splitlines()
                      if line.startswith("repro_runner_worker_spawns_total ")]
            check(len(spawns) == 1 and 1 <= spawns[0] <= service.workers,
                  f"{cold + 1} cold jobs ({2 * cold + 1} cells) forked "
                  f"<= {service.workers} workers (got {spawns})")

            rc = watch.main(["--once", "--url", server.url])
            check(rc == 0, "repro.tools.watch --once --url")
            client.close()

    if failures:
        print(f"smoke: {len(failures)} check(s) failed")
        return 1
    print("smoke: all checks passed")
    return 0


def main(argv: "typing.Sequence[str] | None" = None) -> int:
    args = make_parser().parse_args(argv)
    if args.workers < 1:
        make_parser().error("--workers must be >= 1")
    if args.smoke:
        return run_smoke(args)
    service = build_service(args)
    try:
        asyncio.run(_serve_forever(service, args.host, args.port))
    except KeyboardInterrupt:
        print("repro.service: interrupted, shutting down")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
