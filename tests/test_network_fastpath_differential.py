"""Differential gate: the shipped NIC path vs the oracle's.

Every NIC completion is one engine event.  Two fast paths ride on that:
an RDMA write's remote placement and local completion are one event
holding both keys, and completions posted in key order queue in the
engine's lane instead of the heap.  Each is only admissible if it is
*observationally identical* to the plain formulation -- every overlap
report, telemetry window, and deterministic metric bit-for-bit equal,
every later key the same.  These tests are that gate: each one runs a
workload on the shipped path and on the oracle's (no lane, every write
its two completions: :func:`tests.oracles.heap_only`,
:func:`tests.oracles.write_pairs`), and :func:`tests.oracles.run_both`
asserts every measure :mod:`repro.netsim.differential` compares matches
exactly, across all messaging protocols, the NAS kernels, and
hypothesis-randomized flow interleavings.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.mpisim import MpiConfig
from repro.mpisim.status import ANY_SOURCE, ANY_TAG
from repro.netsim.params import NetworkParams
from tests.oracles import run_both

EAGER_SEND = MpiConfig(name="d-eager-send", eager_limit=1 << 16)
EAGER_RDMA = MpiConfig(name="d-eager-rdma", eager_limit=1 << 16,
                       eager_mode="rdma_write")
PIPELINED = MpiConfig(name="d-pipe", eager_limit=1024, rndv_mode="pipelined",
                      frag_size=4096)
RGET = MpiConfig(name="d-rget", eager_limit=1024, rndv_mode="rget")
RPUT = MpiConfig(name="d-rput", eager_limit=1024, rndv_mode="rput")
PROTOCOLS = [EAGER_SEND, EAGER_RDMA, PIPELINED, RGET, RPUT]


def _traffic_app(ctx):
    """Mixed-protocol traffic: sizes straddling every protocol boundary."""
    right = (ctx.rank + 1) % ctx.size
    left = (ctx.rank - 1) % ctx.size
    reqs = []
    # Sizes chosen to hit eager, rendezvous, single- and multi-fragment
    # paths under every PROTOCOLS config above.
    for tag, size in enumerate((1, 512, 1024, 1025, 4096, 5000, 70_000)):
        reqs.append((yield from ctx.comm.isend(right, tag, size, data=tag)))
        reqs.append((yield from ctx.comm.irecv(left, tag)))
        if tag % 2:
            yield from ctx.compute(3e-6)  # stagger to interleave flows
    yield from ctx.comm.waitall(reqs)
    status, _ = yield from ctx.comm.sendrecv(
        right, 99, 2048, left, 99, data=ctx.rank
    )
    assert status.source == left


@pytest.mark.parametrize("config", PROTOCOLS, ids=lambda c: c.name)
def test_protocol_differential(config):
    run_both(_traffic_app, 4, config=config, label="diff-proto")


def test_nas_lu_differential():
    from repro.nas.lu import lu_app

    run_both(lu_app, 4, app_args=("S", 1, None, None), label="diff-lu")


def test_nas_cg_differential():
    from repro.nas.cg import cg_app

    run_both(cg_app, 4, app_args=("S", 1, None), label="diff-cg")


def test_nas_mg_differential():
    # MG runs on ARMCI, whose puts are RDMA writes: the oracle splits them.
    from repro.armci.runtime import ArmciConfig
    from repro.nas.mg import mg_app

    fast, packet, splits = run_both(
        mg_app, 4, config=ArmciConfig(), app_args=("S", 1, None, True),
        label="diff-mg")
    assert splits > 0 and fast.returns == packet.returns


def test_interleaved_pipelined_flows_match_the_oracle():
    """Two pipelined flows out of one rank, receivers computing between
    receives: completions of the two flows interleave in the store, and
    every fragment write still orders like the pair it stands for."""

    def app(ctx):
        reqs = []
        if ctx.rank == 0:
            for i in range(30):
                reqs.append((yield from ctx.comm.isend(1, i, 5000, data=i)))
                reqs.append((yield from ctx.comm.isend(2, i, 5000, data=i)))
        elif ctx.rank in (1, 2):
            for i in range(30):
                reqs.append((yield from ctx.comm.irecv(0, i)))
                if i % 3 == 0:
                    yield from ctx.compute(2e-6)
        yield from ctx.comm.waitall(reqs)

    _fast, _packet, splits = run_both(app, 3, config=PIPELINED,
                                      label="diff-interleave")
    assert splits > 0


# -- randomized flow-interleaving stress --------------------------------------

#: Sizes spanning eager, rendezvous, and fragment-boundary regimes for
#: the PROTOCOLS configs (eager_limit 1024/64Ki, frag_size 4096/128Ki).
STRESS_SIZES = (1, 64, 1023, 1024, 1025, 4095, 4096, 4097, 8192, 70_000)

plan_entries = st.lists(
    st.tuples(
        st.integers(0, 3),            # sending rank
        st.integers(1, 3),            # destination offset (never self)
        st.sampled_from(STRESS_SIZES),
        st.integers(0, 7),            # tag
        st.integers(0, 20),           # pre-send compute, microseconds
    ),
    min_size=1, max_size=24,
)


def _stress_app(ctx, plan):
    sends = [(src, off, size, tag, delay)
             for (src, off, size, tag, delay) in plan if src == ctx.rank]
    n_recv = sum(1 for (src, off, *_rest) in plan
                 if (src + off) % 4 == ctx.rank)
    reqs = []
    for _src, off, size, tag, delay in sends:
        if delay:
            yield from ctx.compute(delay * 1e-6)
        dst = (ctx.rank + off) % ctx.size
        reqs.append((yield from ctx.comm.isend(dst, tag, size, data=size)))
    for _ in range(n_recv):
        reqs.append((yield from ctx.comm.irecv(ANY_SOURCE, ANY_TAG)))
    yield from ctx.comm.waitall(reqs)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(plan=plan_entries, config=st.sampled_from(PROTOCOLS),
       jitter=st.sampled_from([0.0, 0.25]))
def test_flow_interleaving_stress(plan, config, jitter):
    """Randomized schedules, protocols, and latency jitter: still identical.

    Jittered latencies scramble arrival order across flows, so writes
    complete at instants shared with other flows' completions -- where a
    wrongly drawn key would reorder a tie.
    """
    params = NetworkParams(latency_jitter_frac=jitter)
    run_both(_stress_app, 4, config=config, params=params,
             app_args=(plan,), label="diff-stress")
