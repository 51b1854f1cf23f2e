"""Chrome ``trace_event`` / Perfetto export of instrumented runs.

Renders a simulated job as a standard trace JSON file that loads directly
in ``ui.perfetto.dev`` or ``chrome://tracing``:

* one *process* per rank (``pid`` = rank, named ``rank N``);
* a **calls** thread with one complete ("X") slice per library call
  (nested calls nest);
* a **sections** thread with one slice per monitoring section;
* a **transfers** async track per data-transfer operation ("b"/"e" pairs
  keyed by transfer id).  Transfers whose initiation was invisible
  (case 3) get an *a-priori* span ``[end - xfer_time, end]`` when an
  :class:`~repro.core.xfer_table.XferTable` is supplied;
* a **wire** async track with the simulator's ground-truth physical
  transfer intervals (``Fabric.transfer_log``), when recording was on;
* one counter ("C") track per windowed metric fed from a
  :class:`~repro.telemetry.windows.WindowSeries`.

Timestamps are simulated seconds scaled to trace microseconds.  The
exporter is pure post-processing: it consumes a recorded event list (a
:class:`~repro.core.trace.TraceSink`'s), never the live hot path.
"""

from __future__ import annotations

import json
import os
import typing

from repro.core.events import EventKind, NameRegistry, TimedEvent
from repro.telemetry.windows import WINDOW_METRICS, WindowSeries

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.xfer_table import XferTable
    from repro.netsim.nic import TransferRecord

#: Simulated seconds -> trace microseconds.
TIME_SCALE = 1e6

#: Thread ids within each rank's process.
TID_CALLS = 1
TID_SECTIONS = 2
TID_TRANSFERS = 3
TID_WIRE = 4

#: Thread id used by host-time span timelines (``repro.tracing.merge``).
TID_SPANS = 1

_THREAD_NAMES = {
    TID_CALLS: "library calls",
    TID_SECTIONS: "sections",
    TID_TRANSFERS: "data transfers",
    TID_WIRE: "wire (ground truth)",
}


class ChromeTraceExporter:
    """Accumulates trace events; serializes the Chrome JSON object format."""

    def __init__(self) -> None:
        self.events: list[dict[str, object]] = []
        self._named_pids: set[int] = set()
        self._wire_seq = 0

    # -- metadata -----------------------------------------------------------
    def _ensure_process(self, rank: int, label: str = "") -> None:
        name = f"rank {rank}" + (f" ({label})" if label else "")
        self.add_process(rank, name, rank, _THREAD_NAMES)

    def add_process(self, pid: int, name: str,
                    sort_index: "int | None" = None,
                    thread_names: "dict[int, str] | None" = None) -> None:
        """Name an arbitrary process track (not tied to a simulated rank).

        The host-span merge (:mod:`repro.tracing.merge`) builds multi-
        process timelines -- service worker, sweep cells, shard workers
        -- whose pids are assigned by enumeration, not rank number.
        """
        if pid in self._named_pids:
            return
        self._named_pids.add(pid)
        self.events.append(
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": name}}
        )
        self.events.append(
            {"ph": "M", "name": "process_sort_index", "pid": pid, "tid": 0,
             "args": {"sort_index": sort_index if sort_index is not None
                      else pid}}
        )
        for tid, tname in (thread_names or {TID_SPANS: "spans"}).items():
            self.events.append(
                {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                 "args": {"name": tname}}
            )

    def add_complete_slice(self, pid: int, tid: int, name: str, cat: str,
                           t0: float, t1: float,
                           args: "dict | None" = None) -> None:
        """One complete ("X") slice from absolute times in seconds."""
        ev: dict[str, object] = {
            "ph": "X", "name": name, "cat": cat, "pid": pid, "tid": tid,
            "ts": t0 * TIME_SCALE, "dur": max(0.0, (t1 - t0)) * TIME_SCALE,
        }
        if args:
            ev["args"] = args
        self.events.append(ev)

    # -- slices from the raw event stream -----------------------------------
    def add_rank_events(
        self,
        rank: int,
        events: typing.Sequence[TimedEvent],
        names: NameRegistry,
        xfer_table: "XferTable | None" = None,
        label: str = "",
    ) -> None:
        """Render one rank's recorded event stream as slices."""
        self._ensure_process(rank, label)
        if not events:
            return
        end_of_stream = events[-1].time
        call_stack: list[tuple[int, float]] = []
        section_stack: list[tuple[int, float]] = []
        open_xfers: dict[int, TimedEvent] = {}

        def slice_event(name: str, tid: int, t0: float, t1: float,
                        cat: str, args: dict | None = None) -> None:
            ev: dict[str, object] = {
                "ph": "X", "name": name, "cat": cat, "pid": rank, "tid": tid,
                "ts": t0 * TIME_SCALE, "dur": max(0.0, (t1 - t0)) * TIME_SCALE,
            }
            if args:
                ev["args"] = args
            self.events.append(ev)

        def async_span(name: str, ident: str, t0: float, t1: float,
                       cat: str, args: dict | None = None) -> None:
            base: dict[str, object] = {
                "cat": cat, "name": name, "id": ident, "pid": rank,
                "tid": TID_TRANSFERS if cat.startswith("transfer") else TID_WIRE,
            }
            begin = dict(base, ph="b", ts=t0 * TIME_SCALE)
            if args:
                begin["args"] = args
            self.events.append(begin)
            self.events.append(dict(base, ph="e", ts=t1 * TIME_SCALE))

        for ev in events:
            kind = ev.kind
            if kind == EventKind.CALL_ENTER:
                call_stack.append((ev.a, ev.time))
            elif kind == EventKind.CALL_EXIT:
                if call_stack:
                    ident, t0 = call_stack.pop()
                    slice_event(names.name_of(ident), TID_CALLS, t0, ev.time,
                                "call")
            elif kind == EventKind.SECTION_BEGIN:
                section_stack.append((ev.a, ev.time))
            elif kind == EventKind.SECTION_END:
                if section_stack:
                    ident, t0 = section_stack.pop()
                    slice_event(names.name_of(ident), TID_SECTIONS, t0,
                                ev.time, "section")
            elif kind == EventKind.XFER_BEGIN:
                open_xfers[ev.a] = ev
            elif kind == EventKind.XFER_END:
                begin = open_xfers.pop(ev.a, None)
                if begin is not None:
                    async_span(f"xfer {_fmt_nbytes(ev.b)}", f"x{rank}.{ev.a}",
                               begin.time, ev.time, "transfer",
                               {"nbytes": ev.b})
                elif xfer_table is not None:
                    # Case 3: initiation invisible; draw the a-priori span.
                    span = xfer_table.time_for(float(ev.b))
                    async_span(f"xfer {_fmt_nbytes(ev.b)} (a-priori)",
                               f"x{rank}.{ev.a}", max(0.0, ev.time - span),
                               ev.time, "transfer.apriori", {"nbytes": ev.b})
        # Anything still open at the end of the stream is drawn to the end.
        for ident, t0 in call_stack:
            slice_event(names.name_of(ident), TID_CALLS, t0, end_of_stream,
                        "call.unclosed")
        for ident, t0 in section_stack:
            slice_event(names.name_of(ident), TID_SECTIONS, t0, end_of_stream,
                        "section.unclosed")
        for xid, begin in open_xfers.items():
            async_span(f"xfer {_fmt_nbytes(begin.b)} (unresolved)",
                       f"x{rank}.{xid}", begin.time, end_of_stream,
                       "transfer.unresolved", {"nbytes": begin.b})

    # -- counters from the windowed series -----------------------------------
    def add_window_counters(
        self,
        rank: int,
        series: WindowSeries,
        metrics: typing.Sequence[str] = WINDOW_METRICS,
        label: str = "",
    ) -> None:
        """One counter track per metric: the per-window delta, stepped."""
        self._ensure_process(rank, label)
        unknown = set(metrics) - set(WINDOW_METRICS)
        if unknown:
            raise ValueError(f"unknown window metrics {sorted(unknown)}")
        rows = series.deltas()
        for metric in metrics:
            name = f"win.{metric}"
            for row in rows:
                self.events.append(
                    {"ph": "C", "name": name, "pid": rank, "tid": 0,
                     "ts": row["start"] * TIME_SCALE,
                     "args": {"value": row[metric]}}
                )
            if rows:
                # Close the staircase so the last window has visible width.
                self.events.append(
                    {"ph": "C", "name": name, "pid": rank, "tid": 0,
                     "ts": rows[-1]["end"] * TIME_SCALE, "args": {"value": 0.0}}
                )

    # -- ground-truth wire intervals -----------------------------------------
    def add_transfer_log(
        self,
        records: "typing.Sequence[TransferRecord]",
        min_nbytes: float = 0.0,
    ) -> None:
        """Render the simulator's physical transfer log on per-rank tracks.

        Each record is drawn on its *source* rank's wire thread (for RDMA
        Read, the source is the target NIC streaming the data back).
        Records of at most ``min_nbytes`` (control packets) are skipped.
        """
        for rec in records:
            if rec.nbytes <= min_nbytes:
                continue
            self._ensure_process(rec.src)
            self._wire_seq += 1
            ident = f"w{self._wire_seq}"
            base: dict[str, object] = {
                "cat": "wire", "name": f"{rec.kind} {_fmt_nbytes(rec.nbytes)} "
                f"→ {rec.dst}", "id": ident, "pid": rec.src,
                "tid": TID_WIRE,
            }
            self.events.append(
                dict(base, ph="b", ts=rec.start * TIME_SCALE,
                     args={"nbytes": rec.nbytes, "dst": rec.dst})
            )
            self.events.append(dict(base, ph="e", ts=rec.end * TIME_SCALE))

    # -- serialization --------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return {
            "traceEvents": self.events,
            "displayTimeUnit": "ms",
            "otherData": {"exporter": "repro.telemetry.perfetto",
                          "time_unit": "us (simulated)"},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=None, separators=(",", ":"))

    def save(self, path: "str | os.PathLike") -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


def _fmt_nbytes(n: float) -> str:
    n = int(n)
    if n >= 1 << 20 and n % (1 << 20) == 0:
        return f"{n >> 20}MiB"
    if n >= 1 << 10 and n % (1 << 10) == 0:
        return f"{n >> 10}KiB"
    return f"{n}B"
