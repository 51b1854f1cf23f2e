"""Test oracles: the slow formulations the shipped fast paths must equal.

A referee is a test oracle, never a runtime option: the package ships one
NIC completion path (an RDMA write's placement and completion are one
event), one pending store (same-instant clock syncs grouped, in-order
completions queued in a lane) and one fence routine (the incremental
:meth:`_Coordinator.fences_now`); what each must be bit-identical to
lives here and is patched in by the tests that compare.  The OpenMetrics
parser here is the oracle for :func:`repro.metrics.render_openmetrics`:
the pair forms a round trip.
"""

import collections
import contextlib
import dataclasses
import sys
import typing

import pytest

from repro.metrics import MetricsRegistry
from repro.netsim.differential import compare_runs
from repro.netsim.nic import CompletionEntry, CompletionKind, InboundPacket, Nic
from repro.runtime.launcher import run_app
from repro.sim import Engine
from repro.sim.events import Event
from repro.sim.parallel import _Coordinator
from repro.telemetry.collect import TelemetryConfig

_INF = float("inf")
_NAN = float("nan")


# -- an RDMA write as two completions -----------------------------------------

_merged_write = Nic.post_rdma_write


@contextlib.contextmanager
def write_pairs():
    """Post every direct-delivery RDMA write as the two completions it was
    before they became one event: remote placement and local completion,
    two events at the arrival instant with adjacent keys.

    Yields a list that gains one entry per write split this way: the run
    retires exactly that many more engine events and must report nothing
    else differently.
    """
    split = []

    def write_as_pair(self, dst, nbytes, context=None, notify_payload=None):
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
                dst.inbound.append(
                    InboundPacket(self.node, notify_payload, nbytes))
                dst._kick()

        def local_complete(_ev):
            self.cq.append(
                CompletionEntry(CompletionKind.RDMA_WRITE_DONE, context, nbytes))
            self._kick()

        dst._post_at(arrival, remote_placed)
        dst._post_at(arrival, local_complete)
        split.append(self.node)
        if self._transfer_log is not None:
            self._record(self.node, dst.node, nbytes, tx_end, arrival,
                         "rdma_write")

    with pytest.MonkeyPatch.context() as patches:
        patches.setattr(Nic, "post_rdma_write", write_as_pair)
        yield split


def run_both(app, nprocs, config=None, params=None, app_args=(), seed=0,
             label=""):
    """Run ``app`` on the shipped NIC path and on the oracle's -- every
    completion its own heap tuple (:func:`heap_only`), every RDMA write
    its two completions (:func:`write_pairs`) -- and assert the two runs
    observe the same.

    The shipped run must take a fast path the oracle does not (a
    completion queued in the lane, or a merged write), or the second run
    could tell nothing apart.  Every measure
    :func:`repro.netsim.differential.compare_runs` compares (telemetry and
    metrics are collected on both sides) must be equal, except that the
    oracle retires one more engine event per split write; both sides end
    on the same sequence number, so the merged event drew both keys.
    Returns ``(fast, oracle, splits)``.
    """
    def run():
        registry = MetricsRegistry()
        result = run_app(app, nprocs, config=config, params=params,
                         app_args=app_args, seed=seed, label=label,
                         telemetry=TelemetryConfig(), metrics=registry)
        return result, registry.snapshot()

    with watching_lanes() as lanes:
        fast, fast_metrics = run()
    with heap_only(), write_pairs() as split:
        oracle, oracle_metrics = run()
    splits = len(split)
    assert splits or sum(lane.queued for lane in lanes), (
        "no completion queued in the lane and no write merged: "
        "the oracle run is the shipped run")
    deltas = compare_runs(fast, oracle, fast_metrics, oracle_metrics)
    bad = [d for d in deltas if not d.equal]
    assert [d.measure for d in bad] == (
        ["metrics.repro_engine_events_processed"] if splits else []), (
        "diverged on: " + "; ".join(
            f"{d.measure} fast={d.fast!r} oracle={d.packet!r}"
            for d in bad[:5]))
    fast_engine, oracle_engine = fast.fabric.engine, oracle.fabric.engine
    assert (oracle_engine.processed_count
            - fast_engine.processed_count) == splits
    assert fast_engine._seq == oracle_engine._seq
    return fast, oracle, splits


# -- one heap entry per posted completion -------------------------------------

class _WatchedLane(collections.deque):
    """The shipped lane, counting the completions queued in it."""

    queued = 0

    def append(self, entry):
        self.queued += 1
        super().append(entry)


@contextlib.contextmanager
def heap_only():
    """Push every ``post_at`` completion onto the heap while the block runs.

    The store before in-order completions queued in a lane: with the
    lane's tail at +inf every completion is keyed before it, so each is
    its own heap tuple and the lane stays empty.
    """
    init = Engine.__init__

    def no_lane(self):
        init(self)
        self._lane_tail = _INF

    with pytest.MonkeyPatch.context() as patches:
        patches.setattr(Engine, "__init__", no_lane)
        yield


@contextlib.contextmanager
def watching_lanes():
    """Yield a list that fills with the lane of every engine built while
    the block runs; each counts in ``queued`` the completions it took."""
    init = Engine.__init__
    lanes = []

    def watched(self):
        init(self)
        self._lane = _WatchedLane()
        lanes.append(self._lane)

    with pytest.MonkeyPatch.context() as patches:
        patches.setattr(Engine, "__init__", watched)
        yield lanes


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
    Engine.run, Engine._retire_group))
_NOT_CALLBACKS = frozenset(fn.__code__ for fn in (
    Engine._retire_group, Engine._dispatch_multi,
    Event.processed.fget, Event.ok.fget, Event.value.fget))


@contextlib.contextmanager
def recording_dispatch():
    """Yield a list that fills with the ``(when, seq)`` store key of every
    callback the engine dispatches while the block runs, in order.

    A profile hook reads the key from the dispatching loop's own locals
    (``when``, ``seq`` in ``run`` and ``_retire_group``), so the log is
    the engine's, not a reconstruction.
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
