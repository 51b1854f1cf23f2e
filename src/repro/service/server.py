"""Asyncio HTTP/JSON front end for :class:`~repro.service.core.OverlapService`.

A deliberately small HTTP/1.1 server on stdlib :mod:`asyncio` streams --
no web framework, no new dependencies.  It supports exactly what the job
API needs: GET/POST/DELETE, JSON request bodies by ``Content-Length``,
keep-alive connections (the load test's warm path reuses one socket for
thousands of submissions), and chunked transfer-encoding for streamed
result rows (NDJSON: one report row per chunk).

Routes
------
==========  =============================  =======================================
GET         ``/healthz``                   liveness + queue/cache summary
GET         ``/v1/metrics``                OpenMetrics text (``repro.metrics``)
GET         ``/v1/progress``               service-level ``sweep.json`` payload
GET         ``/v1/jobs``                   job listing (``?tenant=`` filter)
POST        ``/v1/jobs``                   submit (200 cached / 202 queued / 429)
GET         ``/v1/jobs/{id}``              status (``?wait=S``: held until final)
DELETE      ``/v1/jobs/{id}``              cancel
GET         ``/v1/jobs/{id}/result``       rows (``?offset=&limit=``; ``?stream=1``
                                           for chunked NDJSON)
GET         ``/v1/jobs/{id}/progress``     per-job ``sweep.json`` payload
GET         ``/v1/jobs/{id}/trace``        merged Perfetto trace JSON (when the
                                           service was started with tracing)
==========  =============================  =======================================

Blocking service calls (cache probes are disk reads) run on the event
loop's default thread-pool executor, keeping the accept loop responsive
while a submission hashes and probes.  A held status read uses none: it
parks on a future that the job's finish hook resolves.
"""

from __future__ import annotations

import asyncio
import functools
import json
import threading
import time
import typing
import urllib.parse

from repro.service.core import OverlapService

MAX_BODY_BYTES = 1 << 20  # 1 MiB: submissions are small JSON objects
#: Longest a ``GET /v1/jobs/{id}?wait=S`` is held (``S`` is clamped to it).
MAX_WAIT_S = 30.0
SERVER_NAME = "repro-service"

_REASONS = {
    200: "OK", 202: "Accepted", 204: "No Content", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error",
}


class _Request(typing.NamedTuple):
    method: str
    path: str
    query: "dict[str, str]"
    headers: "dict[str, str]"
    body: bytes


def _head(status: int, content_type: str, length: "int | None",
          extra: "dict[str, str] | None" = None,
          chunked: bool = False) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Server: {SERVER_NAME}",
        f"Content-Type: {content_type}",
    ]
    if chunked:
        lines.append("Transfer-Encoding: chunked")
    elif length is not None:
        lines.append(f"Content-Length: {length}")
    for k, v in (extra or {}).items():
        lines.append(f"{k}: {v}")
    lines.append("Connection: keep-alive")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


async def _read_request(reader: asyncio.StreamReader) -> "_Request | None":
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not line or not line.strip():
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        return None
    method, target, _version = parts
    headers: "dict[str, str]" = {}
    while True:
        hline = await reader.readline()
        if not hline or hline in (b"\r\n", b"\n"):
            break
        name, _, value = hline.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY_BYTES:
        raise ValueError("body too large")
    body = await reader.readexactly(length) if length else b""
    parsed = urllib.parse.urlsplit(target)
    query = {k: v[-1] for k, v in
             urllib.parse.parse_qs(parsed.query).items()}
    return _Request(method.upper(), parsed.path, query, headers, body)


class ServiceHTTPServer:
    """Binds an :class:`OverlapService` to a host:port."""

    def __init__(self, service: OverlapService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: "asyncio.AbstractServer | None" = None
        self._http_requests = {
            klass: service.registry.counter(
                "repro_service_http_requests", "HTTP responses by status class",
                labels={"code": klass})
            for klass in ("2xx", "4xx", "5xx")
        }

    async def start(self) -> int:
        """Start accepting; returns the bound port."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        sock = self._server.sockets[0]
        self.port = sock.getsockname()[1]
        return self.port

    async def close(self) -> None:
        """Stop listening.  (Not ``wait_closed()``: from Python 3.12 on it
        waits for every open connection, held reads included.)"""
        if self._server is not None:
            self._server.close()

    # -- connection handling ------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        ahead: "asyncio.Task | None" = None  # read begun by a held read
        try:
            while True:
                try:
                    request = await (ahead or _read_request(reader))
                except (ValueError, asyncio.IncompleteReadError):
                    await self._send_json(writer, 413,
                                          {"error": "request too large"})
                    break
                ahead = None
                if request is None:
                    break
                keep_alive = request.headers.get(
                    "connection", "keep-alive").lower() != "close"
                try:
                    ahead = await self._dispatch(request, reader, writer)
                except ConnectionError:
                    break
                except Exception as exc:  # route bug: report, keep serving
                    await self._send_json(
                        writer, 500,
                        {"error": f"{type(exc).__name__}: {exc}"})
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            # Server shutdown cancelled this connection's parked read.
            # Absorb it so the handler task finishes cleanly: a task left
            # in the cancelled state makes the streams protocol's done
            # callback log a spurious "Exception in callback".
            pass
        finally:
            if ahead is not None:
                ahead.cancel()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _send_json(self, writer: asyncio.StreamWriter, status: int,
                         payload: object,
                         extra: "dict[str, str] | None" = None) -> None:
        await self._send_text(writer, status, json.dumps(payload),
                              "application/json", extra)

    async def _send_text(self, writer: asyncio.StreamWriter, status: int,
                         text: str, content_type: str,
                         extra: "dict[str, str] | None" = None) -> None:
        body = text.encode("utf-8")
        writer.write(_head(status, content_type, len(body), extra))
        writer.write(body)
        await writer.drain()
        self._count(status)

    async def _send_ndjson_stream(
            self, writer: asyncio.StreamWriter, status: int,
            meta: "dict[str, object]",
            rows: "typing.Iterable[object]") -> None:
        """Chunked NDJSON: a meta line, then one line per result row."""
        writer.write(_head(status, "application/x-ndjson", None,
                           chunked=True))

        def chunk(obj: object) -> bytes:
            line = json.dumps(obj).encode("utf-8") + b"\n"
            return f"{len(line):x}\r\n".encode("ascii") + line + b"\r\n"

        writer.write(chunk(meta))
        await writer.drain()
        for row in rows:
            writer.write(chunk(row))
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        self._count(status)

    def _count(self, status: int) -> None:
        klass = f"{status // 100}xx"
        counter = self._http_requests.get(klass)
        if counter is not None:
            counter.inc()

    # -- routing -------------------------------------------------------------
    async def _hold(self, job_id: str, seconds: float,
                    reader: asyncio.StreamReader) -> "asyncio.Task | None":
        """Park until the job is final, ``seconds`` pass, or the client
        hangs up or sends its next request; returns the task reading that
        request, which :meth:`_dispatch` hands back to the connection loop
        (None when the job is unknown or final already)."""
        loop = asyncio.get_running_loop()
        woken: "asyncio.Future[None]" = loop.create_future()
        # Runs on a service thread under its lock: it only schedules.
        hook = functools.partial(loop.call_soon_threadsafe,
                                 woken.set_result, None)
        if not self.service.add_finish_hook(job_id, hook):
            return None
        # A hang-up shows as the next read ending (a waiting client sends
        # nothing), and that read is the connection's next one anyway.
        ahead = asyncio.ensure_future(_read_request(reader))
        try:
            await asyncio.wait((woken, ahead), timeout=seconds,
                               return_when=asyncio.FIRST_COMPLETED)
        finally:  # cancelled at shutdown: the loop's owner cancels ``ahead``
            self.service.remove_finish_hook(job_id, hook)
        return ahead

    async def _dispatch(self, request: _Request,
                        reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter) -> "asyncio.Task | None":
        loop = asyncio.get_running_loop()
        service = self.service
        method, path = request.method, request.path
        segments = [s for s in path.split("/") if s]

        if path == "/healthz" and method == "GET":
            await self._send_json(writer, 200, service.healthz())
            return

        if path == "/v1/metrics" and method == "GET":
            text = await loop.run_in_executor(None, service.metrics_text)
            await self._send_text(writer, 200, text,
                                  "application/openmetrics-text")
            return

        if path == "/v1/progress" and method == "GET":
            status, payload = service.progress_payload()
            await self._send_json(writer, status, payload)
            return

        if path == "/v1/jobs" and method == "POST":
            accept_ts = time.time()  # span anchor: before parse + executor
            try:
                body = json.loads(request.body.decode("utf-8") or "{}")
            except (UnicodeDecodeError, json.JSONDecodeError):
                await self._send_json(writer, 400,
                                      {"error": "body is not valid JSON"})
                return
            status, payload = await loop.run_in_executor(
                None,
                functools.partial(service.submit, body, accept_ts=accept_ts))
            extra = None
            if status == 429:
                extra = {"Retry-After":
                         str(int(float(payload.get("retry_after", 1)) + 0.5))}
            await self._send_json(writer, status, payload, extra)
            return

        if path == "/v1/jobs" and method == "GET":
            status, payload = service.list_jobs(request.query.get("tenant"))
            await self._send_json(writer, status, payload)
            return

        if len(segments) >= 3 and segments[:2] == ["v1", "jobs"]:
            job_id = segments[2]
            tail = segments[3:]
            if not tail and method == "GET":
                try:
                    wait = min(float(request.query.get("wait", 0)),
                               MAX_WAIT_S)
                except ValueError:
                    await self._send_json(writer, 400,
                                          {"error": "wait must be a number"})
                    return
                ahead = (await self._hold(job_id, wait, reader)
                         if wait > 0 else None)
                status, payload = service.job_status(job_id)
                await self._send_json(writer, status, payload)
                return ahead
            if not tail and method == "DELETE":
                status, payload = service.cancel(job_id)
                await self._send_json(writer, status, payload)
                return
            if tail == ["result"] and method == "GET":
                try:
                    offset = int(request.query.get("offset", "0"))
                    limit_s = request.query.get("limit")
                    limit = int(limit_s) if limit_s is not None else None
                except ValueError:
                    await self._send_json(
                        writer, 400,
                        {"error": "offset/limit must be integers"})
                    return
                status, payload = await loop.run_in_executor(
                    None, service.job_result, job_id, offset, limit)
                if status == 200 and request.query.get("stream") in ("1", "true"):
                    rows = typing.cast(list, payload.pop("rows"))
                    await self._send_ndjson_stream(writer, status, payload,
                                                   rows)
                    return
                await self._send_json(writer, status, payload)
                return
            if tail == ["progress"] and method == "GET":
                status, payload = service.progress_payload(job_id)
                await self._send_json(writer, status, payload)
                return
            if tail == ["trace"] and method == "GET":
                # Building the merged trace walks every absorbed payload:
                # off the event loop with the other blocking calls.
                status, payload = await loop.run_in_executor(
                    None, service.job_trace, job_id)
                await self._send_json(writer, status, payload)
                return

        if path.startswith("/v1/") or path == "/healthz":
            await self._send_json(writer, 405,
                                  {"error": f"{method} not supported here"})
            return
        await self._send_json(writer, 404, {"error": f"no route {path!r}"})


# ---------------------------------------------------------------------------
# Threaded embedding (tests, --smoke, the load benchmark)
# ---------------------------------------------------------------------------
class ServerThread:
    """Run the asyncio server on a private loop in a daemon thread.

    The production entrypoint (``repro.tools.serve``) runs the loop in
    the main thread; this helper is for embedding a *real* HTTP server
    inside tests and benchmarks without blocking them.
    """

    def __init__(self, service: OverlapService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.http = ServiceHTTPServer(service, host, port)
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._thread: "threading.Thread | None" = None
        self._started = threading.Event()

    @property
    def port(self) -> int:
        return self.http.port

    @property
    def url(self) -> str:
        return f"http://{self.http.host}:{self.http.port}"

    def start(self) -> "ServerThread":
        self.service.start()

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            loop.run_until_complete(self.http.start())
            self._started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.http.close())
                # Keep-alive handler coroutines may still be parked on a
                # read; cancel them so the loop closes without warnings.
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True))
                loop.close()

        self._thread = threading.Thread(target=run, name="repro-service-http",
                                        daemon=True)
        self._thread.start()
        if not self._started.wait(10.0):
            raise RuntimeError("HTTP server failed to start within 10 s")
        return self

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(5.0)
        self.service.shutdown()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
