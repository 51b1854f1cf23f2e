"""Test oracles: the slow formulations the shipped fast paths must equal.

A referee is a test oracle, never a runtime option: the package ships one
NIC scheduling path (burst macro-events), one pending store (same-instant
clock syncs grouped) and one fence routine (the incremental
:meth:`_Coordinator.fences_now`); what each must be bit-identical to lives
here and is patched in by the tests that compare.  The OpenMetrics
parser here is the oracle for :func:`repro.metrics.render_openmetrics`:
the pair forms a round trip.
"""

import contextlib
import dataclasses
import sys
import typing

import pytest

from repro.metrics import MetricsRegistry
from repro.netsim.nic import (_STREAM_RX, CompletionEntry, CompletionKind,
                              InboundPacket, Nic)
from repro.runtime.launcher import run_app
from repro.sim import Engine
from repro.sim.events import Event
from repro.sim.parallel import _Coordinator
from repro.telemetry.collect import TelemetryConfig

_INF = float("inf")
_NAN = float("nan")


# -- per-packet NIC scheduling --------------------------------------------

def _packet_at(self, _stream, when, fn, keys=1):
    """``Nic._burst_at`` without bursts: one engine event per completion.

    The sequence number is allocated at the same program point
    (``post_at``), so the ``(when, seq)`` order is the burst path's; a
    completion standing for ``keys`` adjacent events draws all their keys.
    """
    engine = self.engine
    engine.post_at(max(when, engine.now)).callbacks.append(fn)
    engine._seq += keys - 1


_merged_write = Nic.post_rdma_write


def _write_as_pair(self, dst, nbytes, context=None, notify_payload=None):
    """``Nic.post_rdma_write`` (direct delivery) before its two completions
    were merged: remote placement and local completion are two events at
    the arrival instant, with adjacent keys."""
    if self._channel:
        return _merged_write(self, dst, nbytes, context, notify_payload)
    self._check_dst(dst)
    tx_end = self._tx_stream(nbytes)
    first_byte = tx_end - self.params.wire_time(nbytes) + self._latency(dst)
    self.bytes_sent += nbytes
    self.messages_sent += 1
    arrival = self._rx_stream(dst, first_byte, nbytes)

    def remote_placed(_ev):
        dst.bytes_received += nbytes
        dst.messages_received += 1
        if notify_payload is not None:
            dst.inbound.append(InboundPacket(self.node, notify_payload, nbytes))
            dst._kick()

    def local_complete(_ev):
        self.cq.append(
            CompletionEntry(CompletionKind.RDMA_WRITE_DONE, context, nbytes))
        self._kick()

    dst._burst_at(_STREAM_RX, arrival, remote_placed)
    dst._burst_at(_STREAM_RX, arrival, local_complete)
    if self._transfer_log is not None:
        self._record(self.node, dst.node, nbytes, tx_end, arrival,
                     "rdma_write")


@contextlib.contextmanager
def packet_path(write_pairs=False):
    """Schedule every NIC completion individually while the block runs.

    With ``write_pairs`` an RDMA write is also the two completions it was
    before they became one sub-event (:func:`_write_as_pair`): the run
    retires exactly one more engine event per write and must report
    nothing else differently.
    """
    with pytest.MonkeyPatch.context() as patches:
        patches.setattr(Nic, "_burst_at", _packet_at)
        if write_pairs:
            patches.setattr(Nic, "post_rdma_write", _write_as_pair)
        yield


def run_both(app, nprocs, config=None, params=None, app_args=(), seed=0,
             label="", write_pairs=False):
    """Run ``app`` on the shipped burst path and under :func:`packet_path`
    (``write_pairs`` is the oracle's).

    Returns ``(fast_result, packet_result, fast_metrics, packet_metrics)``
    for :func:`repro.netsim.differential.compare_runs`; telemetry and
    metrics are collected on both sides, everything else about the two
    runs is identical by construction.
    """
    results, snapshots = [], []
    for path in (contextlib.nullcontext,
                 lambda: packet_path(write_pairs=write_pairs)):
        registry = MetricsRegistry()
        with path():
            results.append(run_app(
                app, nprocs, config=config, params=params,
                app_args=app_args, seed=seed, label=label,
                telemetry=TelemetryConfig(), metrics=registry,
            ))
        snapshots.append(registry.snapshot())
    return results[0], results[1], snapshots[0], snapshots[1]


# -- one store entry per clock sync ------------------------------------------

@contextlib.contextmanager
def one_entry_per_sync():
    """Key every clock sync as its own heap tuple while the block runs.

    The store before same-instant syncs were grouped: ``advance_to`` never
    sees the previous sync's instant (NaN equals nothing), so no
    ``_SyncGroup`` is ever built and every sync takes the lone path.
    """
    advance_to = Engine.advance_to

    def lone(self, when):
        self._sync_when = _NAN
        return advance_to(self, when)

    with pytest.MonkeyPatch.context() as patches:
        patches.setattr(Engine, "advance_to", lone)
        yield


_DISPATCH_LOOPS = frozenset(fn.__code__ for fn in (
    Engine.run, Engine._retire_burst, Engine._retire_group))
_NOT_CALLBACKS = frozenset(fn.__code__ for fn in (
    Engine._retire_burst, Engine._retire_group, Engine._dispatch_multi,
    Engine._post_entry, Event.processed.fget, Event.ok.fget,
    Event.value.fget))


@contextlib.contextmanager
def recording_dispatch():
    """Yield a list that fills with the ``(when, seq)`` store key of every
    callback the engine dispatches while the block runs, in order.

    A profile hook reads the key from the dispatching loop's own locals
    (``when``, ``seq`` in ``run``, ``_retire_burst`` and
    ``_retire_group``), so the log is the engine's, not a reconstruction.
    """
    multi = Engine._dispatch_multi.__code__
    log = []

    def hook(frame, event, _arg):
        if event != "call" or frame.f_code in _NOT_CALLBACKS:
            return
        caller = frame.f_back
        if caller is not None and caller.f_code is multi:
            caller = caller.f_back
        if caller is not None and caller.f_code in _DISPATCH_LOOPS:
            where = caller.f_locals
            log.append((where["when"], where["seq"]))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield log
    finally:
        sys.setprofile(previous)


# -- conservative fences ----------------------------------------------------

def fences_reference(co):
    """The O(shards²) nested-scan fence formulation of a live coordinator.

    Recomputed from first principles -- every boxed message and every
    outstanding obligation rescanned -- so it checks the maintained
    bound array as well as the fence arithmetic.
    """
    n = co.nshards
    la = co.la
    s = list(co._bounds[:n])
    for j, box in enumerate(co.inbox):
        for msg in box:
            if msg.when < s[j]:
                s[j] = msg.when
    for creditor, horizon in co.obligations.values():
        if horizon < s[creditor]:
            s[creditor] = horizon
    b = [
        min(
            s[j],
            min((s[k] for k in range(n) if k != j), default=_INF) + la,
        )
        for j in range(n)
    ]
    fences = []
    for i in range(n):
        f = min((b[j] for j in range(n) if j != i), default=_INF) + la
        for creditor, horizon in co.obligations.values():
            if creditor == i and horizon < f:
                f = horizon
        fences.append(f)
    return fences


@dataclasses.dataclass
class FenceChecks:
    """What :func:`checking_fences` saw."""

    #: ``fences_now`` calls compared with :func:`fences_reference`.
    compared: int = 0
    #: ... of which with placement-ACK obligations outstanding.
    with_obligations: int = 0


@contextlib.contextmanager
def checking_fences():
    """Assert every ``fences_now`` call returns the floats
    :func:`fences_reference` does; yields the :class:`FenceChecks` tally."""
    fences_now = _Coordinator.fences_now
    checks = FenceChecks()

    def checked(co):
        fences = fences_now(co)
        assert fences == fences_reference(co)
        checks.compared += 1
        checks.with_obligations += bool(co.obligations)
        return fences

    with pytest.MonkeyPatch.context() as patches:
        patches.setattr(_Coordinator, "fences_now", checked)
        yield checks


# -- OpenMetrics text parser ------------------------------------------------

#: Suffix of counter sample names, per the OpenMetrics spec.
_COUNTER_SUFFIX = "_total"


def _parse_labels(text: str) -> tuple[tuple[str, str], ...]:
    out: list[tuple[str, str]] = []
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        name = text[i:eq]
        if text[eq + 1] != '"':
            raise ValueError(f"malformed label value near {text[eq:]!r}")
        j = eq + 2
        buf: list[str] = []
        while text[j] != '"':
            ch = text[j]
            if ch == "\\":
                nxt = text[j + 1]
                buf.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
                j += 2
            else:
                buf.append(ch)
                j += 1
        out.append((name, "".join(buf)))
        i = j + 1
        if i < len(text) and text[i] == ",":
            i += 1
    return tuple(out)


def parse_openmetrics(text: str) -> "dict[str, dict[str, object]]":
    """Parse exposition text back into ``{family: {kind, help, samples}}``.

    ``samples`` maps ``(suffix, labels)`` (labels sorted, ``le`` included
    for buckets) to the float value.  Only the subset of OpenMetrics the
    renderer emits is supported -- that is the point: the pair forms a
    round trip, which the hypothesis property test exercises.
    """
    families: dict[str, dict[str, object]] = {}
    saw_eof = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            families[name] = {"kind": kind, "help": "", "samples": {}}
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            if name in families:
                families[name]["help"] = (
                    help_text.replace("\\n", "\n").replace("\\\\", "\\")
                )
            continue
        if line.startswith("#"):
            continue
        # Sample line: name{labels} value
        if "{" in line:
            name_part, _, rest = line.partition("{")
            label_text, _, value_text = rest.rpartition("} ")
            labels = _parse_labels(label_text)
        else:
            name_part, _, value_text = line.rpartition(" ")
            labels = ()
        family, suffix = _resolve_family(name_part, families)
        value = float(value_text)
        samples = typing.cast("dict", families[family]["samples"])
        samples[(suffix, tuple(sorted(labels)))] = value
    if not saw_eof:
        raise ValueError("exposition text does not end with # EOF")
    return families


def _resolve_family(sample_name: str,
                    families: "dict[str, dict[str, object]]") -> tuple[str, str]:
    """Map a sample name to its (family, suffix) via the TYPE metadata."""
    if sample_name in families and (
        typing.cast("dict", families[sample_name])["kind"] == "gauge"
    ):
        return sample_name, ""
    for suffix in (_COUNTER_SUFFIX, "_bucket", "_count", "_sum"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if base in families:
                return base, suffix
    if sample_name in families:  # e.g. an untyped or gauge-like family
        return sample_name, ""
    raise ValueError(f"sample {sample_name!r} matches no declared family")
