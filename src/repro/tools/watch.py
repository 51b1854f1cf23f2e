"""CLI: live ANSI dashboard over a sweep's metrics directory or service.

``repro.tools.paper`` and ``repro.tools.nas`` publish their sweep state
(``sweep.json`` + ``metrics.om``) into ``--metrics-dir``; this tool tails
it from another terminal::

    python -m repro.tools.watch --metrics-dir out/metrics
    python -m repro.tools.watch --metrics-dir out/metrics --interval 0.5

The analysis service (``repro.tools.serve``) publishes the same payload
over HTTP; ``--url`` polls it instead of the filesystem, making this
dashboard just one more service client::

    python -m repro.tools.watch --url http://localhost:8080
    python -m repro.tools.watch --url http://localhost:8080/v1/jobs/job-00000003/progress

``--once`` renders a single plain-ASCII snapshot to stdout and exits --
no cursor control, no TTY required -- which is how CI smoke-tests the
dashboard (and how scripts scrape a sweep's state).  It exits nonzero
when no status is available *or* when the observed sweep finished with
failed cells, so scripts can gate on a clean sweep.

The renderer is pure (payload dict in, text out), so the ``--live`` flag
of the sweep CLIs reuses it in-process.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import typing
import urllib.error
import urllib.parse
import urllib.request

from repro.metrics.progress import load_status

#: Width of the progress bar in characters.
BAR_WIDTH = 40

_ANSI_CLEAR_BLOCK = "\x1b[{n}A\x1b[J"


def _bar(fraction: float, width: int = BAR_WIDTH) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "-" * (width - filled)


def _fmt_eta(seconds: float) -> str:
    if seconds <= 0:
        return "--"
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


def load_status_url(url: str) -> "dict[str, object] | None":
    """Fetch a sweep.json-schema payload from a service progress URL.

    A bare service URL (no ``/v1/`` path) is completed to the
    service-level ``/v1/progress`` endpoint; a full per-job progress URL
    is fetched as given.  Returns ``None`` when the service is
    unreachable or answers with a non-JSON/non-200 response.
    """
    split = urllib.parse.urlsplit(url)
    if not split.scheme:
        url = "http://" + url
        split = urllib.parse.urlsplit(url)
    if split.path in ("", "/"):
        url = url.rstrip("/") + "/v1/progress"
    try:
        with urllib.request.urlopen(url, timeout=5.0) as resp:
            if resp.status != 200:
                return None
            return json.loads(resp.read().decode("utf-8"))
    except (OSError, urllib.error.URLError, json.JSONDecodeError,
            ValueError):
        return None


def render_status(payload: "dict[str, object] | None") -> str:
    """Render one dashboard frame from a ``sweep.json`` payload."""
    if payload is None:
        return "watch: no sweep status published yet (missing sweep.json)"
    total = int(typing.cast(int, payload.get("total", 0)))
    done = int(typing.cast(int, payload.get("done", 0)))
    cached = int(typing.cast(int, payload.get("cached", 0)))
    failed = int(typing.cast(int, payload.get("failed", 0)))
    queued = int(typing.cast(int, payload.get("queued", total - done)))
    frac = done / total if total else 0.0
    finished = bool(payload.get("finished"))
    state = "done" if finished else "running"
    lines = [
        f"sweep {payload.get('label', '?')} [{state}]",
        f"  [{_bar(frac)}] {done}/{total} tasks ({frac * 100:.0f}%)",
        f"  queued {queued}   cached {cached} "
        f"({float(typing.cast(float, payload.get('cache_ratio', 0.0))) * 100:.0f}% hit)"
        + (f"   failed {failed}" if failed else "")
        + f"   jobs {payload.get('jobs', 1)}",
        f"  elapsed {float(typing.cast(float, payload.get('elapsed_s', 0.0))):.1f}s"
        f"   avg task {float(typing.cast(float, payload.get('avg_task_s', 0.0))):.3f}s"
        f"   worker util "
        f"{float(typing.cast(float, payload.get('utilization', 0.0))) * 100:.0f}%",
        f"  ETA {_fmt_eta(float(typing.cast(float, payload.get('eta_s', 0.0))))}"
        + (f"   last: {payload['last_task']}" if payload.get("last_task") else ""),
    ]
    stages = payload.get("stages")
    if isinstance(stages, dict) and stages:
        # Per-stage span latency published by a tracing-enabled service
        # (see docs/observability.md): category -> {count, avg_ms, total_s}.
        worst = sorted(stages.items(),
                       key=lambda kv: -float(kv[1].get("total_s", 0.0)))[:4]
        lines.append("  stages " + "   ".join(
            f"{cat} {float(st.get('avg_ms', 0.0)):.1f}ms"
            f"x{int(st.get('count', 0))}"
            for cat, st in worst))
    return "\n".join(lines)


class LiveRenderer:
    """In-place ANSI repaint of the dashboard block (for ``--live``)."""

    def __init__(self, stream: "typing.TextIO | None" = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._lines = 0

    def update(self, payload: "dict[str, object] | None") -> None:
        text = render_status(payload)
        if self._lines:
            self.stream.write(_ANSI_CLEAR_BLOCK.format(n=self._lines))
        self.stream.write(text + "\n")
        self.stream.flush()
        self._lines = text.count("\n") + 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.watch",
        description="Tail a sweep's metrics directory as a live dashboard.",
    )
    parser.add_argument("--metrics-dir", default=".",
                        help="directory a sweep publishes sweep.json into")
    parser.add_argument("--url", default=None,
                        help="poll an analysis service's progress endpoint "
                        "instead of a directory (a bare http://host:port "
                        "is completed to /v1/progress; a per-job progress "
                        "URL works too)")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="refresh period in seconds (live mode)")
    parser.add_argument("--once", action="store_true",
                        help="print one plain snapshot to stdout and exit "
                        "(no TTY/ANSI; CI-friendly); exits nonzero when no "
                        "status exists or the sweep finished with failed "
                        "cells")
    parser.add_argument("--timeout", type=float, default=None,
                        help="live mode: give up after this many seconds "
                        "without the sweep finishing")
    parser.add_argument("--max-fetch-failures", type=int, default=10,
                        metavar="N",
                        help="live --url mode: exit with status 2 after N "
                        "consecutive failed fetches instead of rendering "
                        "an empty dashboard forever (default %(default)s; "
                        "0 disables the limit)")
    return parser


def main(argv: typing.Sequence[str] | None = None) -> int:
    args = make_parser().parse_args(argv)

    def load() -> "dict[str, object] | None":
        if args.url is not None:
            return load_status_url(args.url)
        return load_status(args.metrics_dir)

    if args.once:
        payload = load()
        print(render_status(payload))
        if payload is None:
            return 1
        if payload.get("finished") and int(
                typing.cast(int, payload.get("failed", 0))):
            return 1
        return 0

    renderer = LiveRenderer()
    deadline = (time.monotonic() + args.timeout
                if args.timeout is not None else None)
    # --url mode: every failed fetch used to render as an empty dashboard
    # forever; count consecutive failures (any success resets) and bail
    # out loudly once the service is clearly gone.
    fetch_failures = 0
    try:
        while True:
            payload = load()
            renderer.update(payload)
            if args.url is not None:
                fetch_failures = 0 if payload is not None \
                    else fetch_failures + 1
                if (args.max_fetch_failures > 0
                        and fetch_failures >= args.max_fetch_failures):
                    print(
                        f"watch: {fetch_failures} consecutive failed "
                        f"fetches from {args.url} (service down or URL "
                        f"wrong); giving up",
                        file=sys.stderr)
                    return 2
            if payload is not None and payload.get("finished"):
                failed = int(typing.cast(int, payload.get("failed", 0)))
                return 1 if failed else 0
            if deadline is not None and time.monotonic() > deadline:
                print("watch: timeout before the sweep finished",
                      file=sys.stderr)
                return 1
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
