"""NIC edge cases around the burst-coalescing fast path.

Boundary conditions where macro-event coalescing could plausibly diverge
from per-packet simulation: zero-byte messages, single-packet transfers,
transfers landing exactly on protocol/fragment boundaries, and
simultaneous identical-timestamp arrivals (whose tie-break order must be
deterministic and path-independent).
"""

import pytest

from repro.mpisim import MpiConfig
from repro.mpisim.status import ANY_SOURCE, ANY_TAG
from repro.netsim.differential import compare_runs
from tests.oracles import packet_path, run_both

EAGER_LIMIT = 1024
FRAG = 4096
CONFIG = MpiConfig(name="edge", eager_limit=EAGER_LIMIT,
                   rndv_mode="pipelined", frag_size=FRAG)


def _assert_identical(fast, packet, mf, mp):
    bad = [d for d in compare_runs(fast, packet, mf, mp) if not d.equal]
    assert not bad, "diverged on: " + "; ".join(d.measure for d in bad)


def _pair_app_factory(size):
    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(1, 5, size, data=b"payload")
        else:
            status, _ = yield from ctx.comm.recv(0, 5)
            assert status.nbytes == size
    return app


def test_zero_byte_message():
    fast, packet, mf, mp = run_both(
        _pair_app_factory(0), 2, config=CONFIG, label="edge-zero"
    )
    _assert_identical(fast, packet, mf, mp)


def test_single_packet_transfer():
    # Rendezvous payload smaller than one fragment: exactly one data packet.
    fast, packet, mf, mp = run_both(
        _pair_app_factory(EAGER_LIMIT + 1), 2, config=CONFIG,
        label="edge-single"
    )
    _assert_identical(fast, packet, mf, mp)


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
def test_exactly_at_boundary_burst_splits(size):
    """Transfers landing exactly on protocol/fragment boundaries.

    These are the sizes where the burst builder sees packet trains of
    length 1, N, and N+1 -- each must split/coalesce without perturbing a
    single completion timestamp.
    """
    fast, packet, mf, mp = run_both(
        _pair_app_factory(size), 2, config=CONFIG,
        label=f"edge-boundary-{size}"
    )
    _assert_identical(fast, packet, mf, mp)


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
        eng.step()
        while len(c.inbound) > seen:
            trace.append((eng.now, c.inbound[seen].src_node))
            seen += 1
    return trace


def test_simultaneous_identical_timestamp_arrivals():
    """Equal-timestamp arrivals tie-break deterministically on both paths."""
    fast = _arrival_trace()
    with packet_path():
        packet = _arrival_trace()
    (t_a, src_a), (t_b, src_b) = fast
    # Both packets arrive at the same simulated instant...
    assert t_a == t_b
    # ...and tie-break in posting order (NIC 1 posted before NIC 2),
    # identically under both paths and on every rerun.
    assert [src_a, src_b] == [1, 2]
    assert packet == fast
    assert _arrival_trace() == fast


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
    fast, packet, mf, mp = run_both(
        _simultaneous_app, 3, config=CONFIG, label="edge-tie"
    )
    _assert_identical(fast, packet, mf, mp)
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
