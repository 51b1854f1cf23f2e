"""Optional event tracing -- the approach the paper's design avoids.

Section 5 contrasts the framework with trace-based tools: tracing suffers
"increases in wall-clock execution time due to the overhead of
instrumentation, possibility of perturbing application behavior, and the
overhead of storing voluminous trace files".  This module implements that
alternative so the trade-off can be measured (ablation EA7): a
:class:`TraceSink` records *every* event with unbounded memory, serializes
to a text format, and reloads for offline analysis.

The offline analyzer (:func:`replay_overlap`) feeds a stored trace back
through the standard :class:`~repro.core.processor.DataProcessor`,
demonstrating that the on-the-fly bounded-memory pipeline computes exactly
what a full trace would.
"""

from __future__ import annotations

import io
import os
import typing

from repro.core.events import EventColumns, EventKind, TimedEvent
from repro.core.measures import DEFAULT_BIN_EDGES
from repro.core.processor import DataProcessor
from repro.core.xfer_table import XferTable

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.monitor import Monitor

_HEADER = "# repro event trace v1: kind<TAB>time<TAB>a<TAB>b"

#: Bytes per stored record (the paper's queue holds fixed-size records):
#: the item sizes of the four columns a record is stored in.
RECORD_NBYTES = EventColumns.RECORD_NBYTES


class TraceSink:
    """Unbounded in-memory event recorder.

    Stores records columnar, like the queue.  :meth:`attach` it to a
    monitor.
    """

    def __init__(self) -> None:
        self._columns = EventColumns()

    def attach(self, monitor: "Monitor") -> None:
        """Record every event ``monitor`` stamps from now on, in order.

        The sink taps the monitor's queue: it gets the records in batches
        (no per-stamp work) on ring and draining monitors alike, so the
        record is complete once the monitor is finalized and trails the
        stamps by at most one queue-full before that.
        """
        monitor.queue.add_tap(self.extend)

    def extend(self, batch: EventColumns) -> None:
        """Record a batch the queue hands its taps."""
        self._columns.extend(batch)

    @property
    def events(self) -> list[TimedEvent]:
        """Everything recorded so far, materialized (a new list per read)."""
        return list(self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    @property
    def nbytes_estimate(self) -> int:
        """Stored size: :data:`RECORD_NBYTES` per record."""
        return RECORD_NBYTES * len(self._columns)

    # -- persistence -------------------------------------------------------
    def dumps(self) -> str:
        buf = io.StringIO()
        buf.write(_HEADER + "\n")
        for kind, time, a, b in self._columns.rows():
            buf.write(f"{kind}\t{time:.17g}\t{a}\t{b}\n")
        return buf.getvalue()

    def save(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @staticmethod
    def loads(text: str) -> list[TimedEvent]:
        events: list[TimedEvent] = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"malformed trace line {lineno}: {line!r}")
            events.append(
                TimedEvent(
                    EventKind(int(parts[0])), float(parts[1]),
                    int(parts[2]), int(parts[3]),
                )
            )
        return events

    @staticmethod
    def load(path: str | os.PathLike) -> list[TimedEvent]:
        with open(path, "r", encoding="utf-8") as fh:
            return TraceSink.loads(fh.read())


def replay_overlap(
    events: typing.Sequence[TimedEvent],
    xfer_table: XferTable,
    bin_edges: typing.Sequence[float] = DEFAULT_BIN_EDGES,
    end_time: float | None = None,
) -> DataProcessor:
    """Offline analysis: run the bounding algorithm over a stored trace.

    Returns the finalized processor; its ``total`` must equal what the
    live bounded-memory pipeline computed (tested property).
    """
    proc = DataProcessor(xfer_table, bin_edges)
    proc.process(events)
    if end_time is None and events:
        end_time = events[-1].time
    proc.finalize(end_time)
    return proc
