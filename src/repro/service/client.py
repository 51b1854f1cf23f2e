"""Minimal stdlib client for the overlap-analysis service.

Used by ``repro.tools.watch --url``, the ``--smoke`` self-test, the CI
smoke job, and the load benchmark.  One :class:`ServiceClient` holds one
keep-alive :class:`http.client.HTTPConnection`, so a submit/poll loop
pays connection setup once -- exactly how a real high-volume client
behaves, and what the warm-hit latency numbers measure.  A keep-alive
the server dropped between calls is re-dialed once per request (see
:meth:`ServiceClient._roundtrip`) so one idle timeout or server restart
never poisons the client.

Not thread-safe: give each thread its own client.
"""

from __future__ import annotations

import http.client
import json
import time
import typing
import urllib.parse


class ServiceError(RuntimeError):
    """Transport-level failure talking to the service."""


class Response(typing.NamedTuple):
    status: int
    body: "dict[str, typing.Any]"
    headers: "dict[str, str]"


class ServiceClient:
    """Blocking JSON client over one keep-alive connection."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"only http:// URLs are supported, got {base_url!r}")
        host = parsed.hostname or "127.0.0.1"
        port = parsed.port or 80
        self.base_url = f"http://{host}:{port}"
        self.timeout = timeout
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- plumbing ----------------------------------------------------------
    def _roundtrip(
        self, method: str, path: str,
        body: "bytes | None" = None,
        headers: "dict[str, str] | None" = None,
    ) -> "tuple[http.client.HTTPResponse, bytes]":
        """One request/response with a single reconnect on a dead socket.

        Every HTTP path in this client funnels through here: a server
        that closed the keep-alive between calls (idle timeout, restart)
        surfaces as ``ConnectionError``/``BadStatusLine``/``OSError`` on
        the *next* use, and without the retry that one dead socket would
        poison every later request on this client.  ``HTTPConnection``
        auto-reopens after ``close()``, so one retry on a fresh socket is
        exactly a reconnect.

        CAVEAT -- the retry assumes every request is idempotent: if the
        server processed the first attempt but the connection died before
        the response arrived, the request is replayed.  That holds for
        this service's API (GET/DELETE are naturally idempotent, and
        POST ``/v1/jobs`` dedupes resubmits by job content hash -- see
        :meth:`submit`).  Do not route a non-idempotent request through
        this client without revisiting this.
        """
        headers = headers or {"Connection": "keep-alive"}
        for attempt in (0, 1):
            try:
                self._conn.request(method, path, body=body, headers=headers)
                resp = self._conn.getresponse()
                return resp, resp.read()
            except (http.client.HTTPException, ConnectionError, OSError) as exc:
                self._conn.close()
                if attempt:
                    raise ServiceError(f"{method} {path}: {exc}") from exc
        raise AssertionError("unreachable")  # pragma: no cover

    def request(self, method: str, path: str,
                payload: "object | None" = None) -> Response:
        body = None
        headers = {"Connection": "keep-alive"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        resp, raw = self._roundtrip(method, path, body=body, headers=headers)
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            decoded = {"raw": raw.decode("utf-8", "replace")}
        if not isinstance(decoded, dict):
            decoded = {"value": decoded}
        return Response(resp.status, decoded, dict(resp.getheaders()))

    def text(self, path: str) -> "tuple[int, str]":
        resp, raw = self._roundtrip("GET", path)
        return resp.status, raw.decode("utf-8")

    # -- the job API -------------------------------------------------------
    def healthz(self) -> Response:
        return self.request("GET", "/healthz")

    def submit(self, spec: "dict[str, typing.Any]") -> Response:
        # Safe under _roundtrip's replay-on-dead-socket retry only
        # because the server dedupes submissions by content hash: a
        # replayed submit attaches to the already-accepted job instead
        # of enqueueing a duplicate.
        return self.request("POST", "/v1/jobs", payload=spec)

    def job(self, job_id: str) -> Response:
        return self.request("GET", f"/v1/jobs/{job_id}")

    def result(self, job_id: str, offset: int = 0,
               limit: "int | None" = None) -> Response:
        query = f"?offset={offset}"
        if limit is not None:
            query += f"&limit={limit}"
        return self.request("GET", f"/v1/jobs/{job_id}/result{query}")

    def stream_result(self, job_id: str) -> "list[dict[str, typing.Any]]":
        """Fetch the NDJSON stream; returns [meta, row, row, ...]."""
        resp, raw = self._roundtrip(
            "GET", f"/v1/jobs/{job_id}/result?stream=1")
        if resp.status != 200:
            raise ServiceError(
                f"stream_result({job_id!r}): HTTP {resp.status} "
                f"{raw[:200]!r}")
        # http.client undoes the chunking; NDJSON lines remain.
        lines = raw.decode("utf-8").splitlines()
        return [json.loads(line) for line in lines if line.strip()]

    def cancel(self, job_id: str) -> Response:
        return self.request("DELETE", f"/v1/jobs/{job_id}")

    def progress(self, job_id: "str | None" = None) -> Response:
        path = ("/v1/progress" if job_id is None
                else f"/v1/jobs/{job_id}/progress")
        return self.request("GET", path)

    def metrics_text(self) -> str:
        status, text = self.text("/v1/metrics")
        if status != 200:
            raise ServiceError(f"/v1/metrics: HTTP {status}")
        return text

    def wait(self, job_id: str, timeout: float = 60.0,
             poll: float = 0.05) -> Response:
        """Poll until the job leaves queued/running; returns final status.

        The pause between status reads starts at 2 ms and doubles up to
        ``poll``: a job that takes milliseconds is seen milliseconds
        after it finishes, a long one costs ``1 / poll`` reads a second.
        No pause runs past ``timeout``.
        """
        deadline = time.monotonic() + timeout
        pause = min(0.002, poll)
        while True:
            resp = self.job(job_id)
            if resp.status != 200:
                raise ServiceError(
                    f"wait({job_id!r}): HTTP {resp.status}: {resp.body}")
            if resp.body.get("state") not in ("queued", "running"):
                return resp
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"wait({job_id!r}): still {resp.body.get('state')} "
                    f"after {timeout}s")
            time.sleep(min(pause, remaining))
            pause = min(2 * pause, poll)

    def submit_and_wait(self, spec: "dict[str, typing.Any]",
                        timeout: float = 60.0) -> "tuple[Response, Response]":
        """Submit; if queued, wait.  Returns (submit, final-status)."""
        sub = self.submit(spec)
        if sub.status == 200:
            return sub, sub
        if sub.status != 202:
            raise ServiceError(f"submit: HTTP {sub.status}: {sub.body}")
        job_id = typing.cast(str, sub.body["job_id"])
        return sub, self.wait(job_id, timeout=timeout)
