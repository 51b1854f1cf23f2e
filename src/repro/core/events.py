"""Event kinds and records for the instrumentation framework.

The paper defines four events (Sec. 2.1).  We add three bookkeeping kinds
that never leave the local process: section markers implementing the paper's
"application-level control over sections of code to be monitored", and a
clock-reset marker used when monitoring is paused/resumed so that the paused
interval is not misattributed to computation.
"""

from __future__ import annotations

import enum
import itertools
import typing
from array import array


class EventKind(enum.IntEnum):
    """Kinds of time-stamped events logged by the data collection module."""

    #: Application entered the communication library (paper Sec. 2.1).
    CALL_ENTER = 0
    #: Application left the communication library.
    CALL_EXIT = 1
    #: A data-transfer operation was initiated (library's best approximation
    #: of the start of physical data movement, e.g. posting a work request).
    XFER_BEGIN = 2
    #: A data-transfer operation completed (e.g. a completion-queue poll
    #: returned).
    XFER_END = 3
    #: Application opened a named monitoring section.
    SECTION_BEGIN = 4
    #: Application closed the innermost monitoring section.
    SECTION_END = 5
    #: Monitoring resumed after a pause; resets interval attribution.
    RESET = 6


class TimedEvent(typing.NamedTuple):
    """A single logged event.

    Field meaning depends on ``kind``:

    ========================  =======================  =====================
    kind                      ``a``                    ``b``
    ========================  =======================  =====================
    CALL_ENTER                call-name id             0
    CALL_EXIT                 call-name id             0
    XFER_BEGIN                transfer id              message bytes
    XFER_END                  transfer id              message bytes
    SECTION_BEGIN             section-name id          0
    SECTION_END               section-name id          0
    RESET                     0                        0
    ========================  =======================  =====================
    """

    kind: int
    time: float
    a: int
    b: int


#: ``KINDS[i]`` is the :class:`EventKind` with value ``i``.
KINDS = tuple(EventKind)

# Plain-int mirrors of the members for per-event code (the stamp, the
# processor's dispatch loop): an IntEnum attribute lookup plus an enum
# comparison per event is measurable there, a raw int compare is not.
(CALL_ENTER, CALL_EXIT, XFER_BEGIN, XFER_END,
 SECTION_BEGIN, SECTION_END, RESET) = map(int, EventKind)

#: One record as a plain tuple: ``(kind, time, a, b)``.
Row = typing.Tuple[int, float, int, float]


class EventColumns:
    """Fixed-size event records stored as four parallel typed columns.

    One record is one item in each of ``kind`` (``array('b')``), ``time``
    (``array('d')``), ``a`` and ``b`` (``array('q')``) -- 25 bytes, no
    per-record Python object.  This is what the circular queue buffers,
    what it hands the data processor on a drain, and what a
    :class:`~repro.core.trace.TraceSink` keeps.  Consumers that want the
    records walk :meth:`rows`; iterating the columns themselves
    materializes :class:`TimedEvent` objects (``kind`` as an
    :class:`EventKind`), which is the compatibility boundary for code
    that expects a list of events.
    """

    __slots__ = ("kind", "time", "a", "b")

    #: Bytes one record occupies across the four columns.
    RECORD_NBYTES = sum(array(code).itemsize for code in "bdqq")

    def __init__(
        self,
        kind: "array[int] | None" = None,
        time: "array[float] | None" = None,
        a: "array[int] | None" = None,
        b: "array[int] | None" = None,
    ) -> None:
        self.kind = array("b") if kind is None else kind
        self.time = array("d") if time is None else time
        self.a = array("q") if a is None else a
        self.b = array("q") if b is None else b

    def __len__(self) -> int:
        return len(self.kind)

    def rows(self) -> "typing.Iterator[Row]":
        """The records as plain ``(kind, time, a, b)`` tuples, oldest first."""
        return zip(self.kind, self.time, self.a, self.b)

    def __iter__(self) -> "typing.Iterator[TimedEvent]":
        # C-level end to end: NamedTuple's generated ``__new__`` is a
        # Python function, ``tuple.__new__`` on the zipped row is not.
        return map(
            tuple.__new__,
            itertools.repeat(TimedEvent),
            zip(map(KINDS.__getitem__, self.kind), self.time, self.a, self.b),
        )

    def append(self, kind: int, time: float, a: int, b: int) -> None:
        """Store one record -- all four items or, on a bad value, none."""
        n = len(self.kind)
        try:
            self.kind.append(kind)
            self.time.append(time)
            self.a.append(a)
            self.b.append(b)
        except (TypeError, OverflowError):
            for col in (self.kind, self.time, self.a, self.b):
                del col[n:]
            raise

    def extend(self, other: "EventColumns") -> None:
        """Append every record of ``other`` (four buffer copies)."""
        self.kind.extend(other.kind)
        self.time.extend(other.time)
        self.a.extend(other.a)
        self.b.extend(other.b)


class _InternTable(dict):
    """``name -> id`` where indexing an unseen name assigns the next id."""

    __slots__ = ("names",)

    def __init__(self) -> None:
        self.names: list[str] = []

    def __missing__(self, name: str) -> int:
        ident = self[name] = len(self.names)
        self.names.append(name)
        return ident


class NameRegistry:
    """Bidirectional interning of call/section names to small integers.

    The event queue stores integers only (the paper's queue holds fixed-size
    records); names are resolved at report time.
    """

    def __init__(self) -> None:
        #: ``ids[name]`` is the id for ``name``, assigned on first use, in
        #: one dict lookup (the stamping hot path); do not assign to it.
        self.ids = _InternTable()

    def name_of(self, ident: int) -> str:
        """Resolve an id back to its name."""
        return self.ids.names[ident]

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, name: str) -> bool:
        return name in self.ids
