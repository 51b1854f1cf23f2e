"""NIC edge cases around the merged RDMA-write completion and the lane.

Boundary conditions where one event holding two keys, or a completion
queued in the engine's lane, could plausibly diverge from posting each
completion on the heap: zero-byte messages, single-packet
transfers, transfers landing exactly on protocol/fragment boundaries, and
simultaneous identical-timestamp arrivals (whose tie-break order must be
deterministic).
"""

import pytest

from repro.mpisim import MpiConfig
from repro.mpisim.status import ANY_SOURCE, ANY_TAG
from tests.oracles import run_both

EAGER_LIMIT = 1024
FRAG = 4096
CONFIG = MpiConfig(name="edge", eager_limit=EAGER_LIMIT,
                   rndv_mode="pipelined", frag_size=FRAG)


def _pair_app_factory(size):
    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(1, 5, size, data=b"payload")
        else:
            status, _ = yield from ctx.comm.recv(0, 5)
            assert status.nbytes == size
    return app


def test_zero_byte_message():
    run_both(_pair_app_factory(0), 2, config=CONFIG, label="edge-zero")


def test_single_packet_transfer():
    # Rendezvous payload smaller than one fragment: exactly one data packet.
    run_both(_pair_app_factory(EAGER_LIMIT + 1), 2, config=CONFIG,
             label="edge-single")


@pytest.mark.parametrize("size", [
    EAGER_LIMIT - 1,   # last eager size
    EAGER_LIMIT,       # eager/rendezvous boundary
    EAGER_LIMIT + 1,   # first rendezvous size
    FRAG - 1,          # just below one fragment
    FRAG,              # exactly one fragment
    FRAG + 1,          # fragment split begins
    2 * FRAG,          # exactly two fragments
    2 * FRAG + 1,      # two fragments plus a remainder packet
])
def test_exactly_at_boundary_sizes(size):
    """Transfers landing exactly on protocol/fragment boundaries.

    These are the sizes where a transfer is a train of 1, N, and N+1
    completions -- none may perturb a single completion timestamp.
    """
    run_both(_pair_app_factory(size), 2, config=CONFIG,
             label=f"edge-boundary-{size}")


def _arrival_trace():
    """(time, src) of each packet delivered to NIC 0, in delivery order."""
    from repro.netsim import Fabric, NetworkParams
    from repro.sim import Engine

    eng = Engine()
    params = NetworkParams(latency=10e-6, bandwidth=100e6,
                           per_message_overhead=0.0)
    fab = Fabric(eng, params, num_nodes=3)
    c, a, b = fab.nic(0), fab.nic(1), fab.nic(2)
    # Zero-byte control packets posted at t=0 over a symmetric fabric
    # occupy no RX-port time, so both arrive at node 0 at the exact same
    # instant (nonzero payloads would be serialized by the RX port).
    a.post_send(c, 0, payload="from1")
    b.post_send(c, 0, payload="from2")
    seen = 0
    trace = []
    while eng.pending_count:
        eng.run(until=eng.peek)  # one instant at a time
        while len(c.inbound) > seen:
            trace.append((eng.now, c.inbound[seen].src_node))
            seen += 1
    return trace


def test_simultaneous_identical_timestamp_arrivals():
    """Equal-timestamp arrivals tie-break deterministically."""
    trace = _arrival_trace()
    (t_a, src_a), (t_b, src_b) = trace
    # Both packets arrive at the same simulated instant...
    assert t_a == t_b
    # ...and tie-break in posting order (NIC 1 posted before NIC 2), on
    # every rerun.
    assert [src_a, src_b] == [1, 2]
    assert _arrival_trace() == trace


def test_a_completion_due_in_the_past_runs_now():
    """``Nic._post_at`` clamps a time already passed to the current instant
    (``Engine.post_at`` itself refuses the past), keeping its key order."""
    from repro.netsim import Fabric, NetworkParams
    from repro.sim import Engine

    eng = Engine()
    nic = Fabric(eng, NetworkParams(), num_nodes=1).nic(0)
    eng.timeout(2e-6).callbacks.append(lambda _e: None)
    eng.run()
    seen = []
    nic._post_at(1e-6, lambda _e: seen.append(("late", eng.now)))
    nic._post_at(2e-6, lambda _e: seen.append(("now", eng.now)))
    eng.run()
    assert seen == [("late", 2e-6), ("now", 2e-6)]


def _simultaneous_app(ctx):
    # Same scenario end to end: wildcard recvs must see the senders in
    # the NIC's deterministic delivery order.
    if ctx.rank == 0:
        sources = []
        for _ in range(2):
            status, _ = yield from ctx.comm.recv(ANY_SOURCE, ANY_TAG)
            sources.append(status.source)
        return sources
    yield from ctx.comm.send(0, 1, 256, data=ctx.rank)


def test_simultaneous_arrival_recv_order_end_to_end():
    fast, packet, _splits = run_both(
        _simultaneous_app, 3, config=CONFIG, label="edge-tie")
    assert fast.returns[0] == packet.returns[0] == [1, 2]


# -- control-packet classification --------------------------------------------

def test_control_packet_classification():
    from repro.mpisim.packets import (
        CtsPacket, EagerPacket, FinPacket, RtsPacket, is_control_packet,
    )

    assert is_control_packet(CtsPacket(1, 0))
    assert is_control_packet(FinPacket(1, 0, True, b"ref"))
    # rget-style RTS: a buffer reference travels for zero-copy, but no
    # user bytes ride the wire -> control.
    assert is_control_packet(RtsPacket(1, 0, 5, 70_000.0, 0.0, b"ref"))
    # Pipelined RTS with the first fragment aboard moves user bytes.
    assert not is_control_packet(RtsPacket(1, 0, 5, 70_000.0, 4096.0, b"x"))
    assert not is_control_packet(EagerPacket(1, 0, 5, 128.0, b"x"))
    assert not is_control_packet(object())


def test_send_control_rejects_data_packets():
    from repro.mpisim.endpoint import MpiError
    from repro.mpisim.packets import EagerPacket
    from repro.runtime.launcher import run_app

    def app(ctx):
        if ctx.rank == 0:
            with pytest.raises(MpiError, match="non-control payload"):
                yield from ctx.endpoint.send_control(
                    1, EagerPacket(1, 0, 5, 128.0, b"x")
                )
        if False:
            yield  # pragma: no cover

    run_app(app, 2, config=CONFIG, label="edge-ctl-guard")


# -- the merged RDMA-write completion -------------------------------------------
# Direct delivery schedules a write's remote placement and local completion
# as ONE event holding both keys.  The oracle (``write_pairs``) posts the
# two events the NIC used to: every observable must match, and the run
# must retire exactly one more engine event per write (``run_both``).

def _mixed_app(ctx):
    right, left = (ctx.rank + 1) % ctx.size, (ctx.rank - 1) % ctx.size
    reqs = []
    for tag, size in enumerate((1, 900, EAGER_LIMIT + 1, FRAG, 3 * FRAG + 7)):
        reqs.append((yield from ctx.comm.isend(right, tag, size, data=tag)))
        reqs.append((yield from ctx.comm.irecv(left, tag)))
        if tag % 2:
            yield from ctx.compute(3e-6)
    yield from ctx.comm.waitall(reqs)


def _count_writes(monkeypatch):
    """Count ``post_rdma_write`` calls of the shipped (non-oracle) side."""
    from repro.netsim.nic import Nic

    calls = []
    shipped = Nic.post_rdma_write

    def counting(self, *args, **kwargs):
        calls.append(self.node)
        return shipped(self, *args, **kwargs)

    monkeypatch.setattr(Nic, "post_rdma_write", counting)
    return calls


@pytest.mark.parametrize("config", [
    MpiConfig(name="w-eager", eager_limit=EAGER_LIMIT, eager_mode="rdma_write",
              rndv_mode="rget"),
    CONFIG,  # pipelined: fragments 1.. are writes
    MpiConfig(name="w-rput", eager_limit=EAGER_LIMIT, rndv_mode="rput"),
], ids=lambda c: c.name)
def test_merged_write_completion_is_the_old_pair(config, monkeypatch):
    writes = _count_writes(monkeypatch)
    _fast, _packet, splits = run_both(
        _mixed_app, 4, config=config, label="edge-write")
    assert writes and splits == len(writes)


def test_merged_write_completion_under_duplicates_and_reorders(monkeypatch):
    from repro.faults.plan import FaultPlan, ResilienceParams
    from repro.netsim.params import NetworkParams

    plan = FaultPlan(seed=7, drop_prob=0.1, dup_prob=0.2, reorder_prob=0.2)
    config = MpiConfig(name="w-lossy", eager_limit=EAGER_LIMIT,
                       eager_mode="rdma_write", rndv_mode="pipelined",
                       frag_size=FRAG, resilience=ResilienceParams())
    writes = _count_writes(monkeypatch)
    fast, _packet, splits = run_both(
        _mixed_app, 4, config=config, params=NetworkParams(faults=plan),
        label="edge-write-faults")
    assert writes and splits == len(writes)
    injector = fast.fabric.injector
    assert injector.packets_duplicated > 0 and injector.packets_reordered > 0


def test_channel_delivery_keeps_placement_and_ack_apart(monkeypatch):
    """Channel delivery is untouched: the ACK crosses the channel as its
    own message, so there the oracle and the shipped path agree on the
    event count too."""
    from repro.netsim.params import NetworkParams

    writes = _count_writes(monkeypatch)
    _fast, _packet, splits = run_both(
        _mixed_app, 4, config=CONFIG, params=NetworkParams(delivery="channel"),
        label="edge-write-channel")
    assert writes and splits == 0


def test_c_level_records_are_the_constructors_records():
    """Hot-path records are built with ``tuple.__new__``; they cross the
    shard wire, so they must compare, pickle and ``_replace`` exactly like
    constructor-built ones."""
    import pickle

    from repro.mpisim.endpoint import Endpoint
    from repro.mpisim.packets import EagerPacket
    from repro.mpisim.status import Status
    from repro.netsim import Fabric, NetworkParams
    from repro.netsim.nic import (CompletionEntry, CompletionKind,
                                  InboundPacket, TransferRecord)
    from repro.runtime.launcher import run_app
    from repro.sim import Engine

    eng = Engine()
    fab = Fabric(eng, NetworkParams(), num_nodes=2, record_transfers=True)
    a, b = fab.nic(0), fab.nic(1)
    a.post_send(b, 64.0, payload="p", context="c")
    a.post_rdma_write(b, 128.0, context="w", notify_payload="n")
    b.post_rdma_read(a, 256.0, context="r")
    eng.run()
    built = [*a.cq, *b.cq, *b.inbound, *fab.transfer_log]
    expected = [
        CompletionEntry(CompletionKind.SEND_DONE, "c", 64.0),
        CompletionEntry(CompletionKind.RDMA_WRITE_DONE, "w", 128.0),
        CompletionEntry(CompletionKind.RDMA_READ_DONE, "r", 256.0),
        InboundPacket(0, "p", 64.0),
        InboundPacket(0, "n", 128.0),
    ] + [TransferRecord(*record) for record in fab.transfer_log]
    assert {r.kind for r in fab.transfer_log} == {"send", "rdma_write",
                                                  "rdma_read"}

    seen = []
    on_eager = Endpoint._on_eager

    def spying(self, pkt):
        seen.append(pkt)
        on_eager(self, pkt)

    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(1, 5, 100, data=b"x")
        else:
            status, _ = yield from ctx.comm.recv(0, 5)
            seen.append(status)

    with pytest.MonkeyPatch.context() as patches:
        patches.setattr(Endpoint, "_on_eager", spying)
        run_app(app, 2, config=CONFIG, label="edge-records")
    packet, status = seen
    built += [packet, status]
    expected += [EagerPacket(packet.seq, 0, 5, 100, b"x", 0), Status(0, 5, 100)]

    for record, reference in zip(built, expected, strict=True):
        _assert_is_the_constructors(record, reference)


def _assert_is_the_constructors(record, reference):
    import pickle

    cls = type(reference)
    assert type(record) is cls and record == reference
    assert len(record) == len(cls._fields)
    assert hash(record) == hash(reference)
    assert pickle.dumps(record) == pickle.dumps(reference)
    assert pickle.loads(pickle.dumps(record)) == reference
    assert record._asdict() == reference._asdict()
    first = cls._fields[0]
    changed = record._replace(**{first: getattr(reference, first)})
    assert type(changed) is cls and changed == reference


@pytest.mark.parametrize("mode", ["pipelined", "rget", "rput"])
def test_c_level_protocol_records_are_the_constructors_records(mode):
    """The per-message records of the matching queue and the rendezvous
    protocols -- ``UnexpectedMsg`` at all three arrival-before-receive
    sites, ``Status``, ``RtsPacket``, ``CtsPacket``, ``FinPacket`` -- are
    ``tuple.__new__``-built with every field, defaulted ones included."""
    import dataclasses

    from repro.mpisim.endpoint import Endpoint
    from repro.mpisim.matching import MatchingEngine, UnexpectedMsg
    from repro.mpisim.packets import CtsPacket, FinPacket, RtsPacket
    from repro.mpisim.request import Request
    from repro.mpisim.status import Status
    from repro.runtime.launcher import run_app

    records = []
    spied = {
        (MatchingEngine, "add_unexpected"): lambda args: args[1],
        (Endpoint, "_dispatch_packet"): lambda args: args[1],
        (Request, "complete"): lambda args: args[1] if len(args) > 1 else None,
    }

    def app(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            small = yield from comm.isend(1, 1, 100.0, data=b"e")
            big = yield from comm.isend(1, 2, 3.5 * FRAG, data=b"r")
            mine = yield from comm.isend(0, 3, 64.0, data=b"s")
            yield from ctx.compute(50e-6)
            yield from comm.recv(0, 3)
            yield from comm.waitall([small, big, mine])
        else:
            yield from ctx.compute(200e-6)  # both arrive before the receives
            yield from comm.recv(0, 1)
            yield from comm.recv(0, 2)

    with pytest.MonkeyPatch.context() as patches:
        for (cls, name), pick in spied.items():
            original = getattr(cls, name)

            def spy(*args, _original=original, _pick=pick, **kwargs):
                record = _pick(args)
                if isinstance(record, tuple):
                    records.append(record)
                return _original(*args, **kwargs)

            patches.setattr(cls, name, spy)
        run_app(app, 2, config=dataclasses.replace(CONFIG, rndv_mode=mode),
                label=f"edge-records-{mode}")

    kinds = {type(record) for record in records}
    assert {UnexpectedMsg, Status, RtsPacket, CtsPacket, FinPacket} - kinds <= (
        {CtsPacket} if mode == "rget" else set())
    assert {(m.kind, m.src, m.tag, m.nbytes) for m in records
            if type(m) is UnexpectedMsg} == {
        ("eager", 0, 1, 100.0), ("rts", 0, 2, 3.5 * FRAG), ("eager", 0, 3, 64.0)}
    for record in records:
        if type(record).__module__.startswith("repro.mpisim"):
            _assert_is_the_constructors(record, type(record)(**record._asdict()))
