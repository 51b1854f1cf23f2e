"""Differential gate: macro-event fast path vs per-packet simulation.

The burst-coalescing network fast path is only admissible if it is
*observationally identical* to per-packet simulation -- every overlap
report, telemetry window, and deterministic metric bit-for-bit equal.
These tests are that gate: each one runs a workload on the shipped burst
path and under the per-packet oracle (:func:`tests.oracles.packet_path`)
and asserts every measure :mod:`repro.netsim.differential` compares
matches exactly, across all messaging protocols, the NAS kernels, and
hypothesis-randomized flow interleavings designed to force burst yields
and reinserts.
"""

import contextlib

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.mpisim import MpiConfig
from repro.mpisim.status import ANY_SOURCE, ANY_TAG
from repro.netsim.differential import compare_runs
from repro.netsim.params import NetworkParams
from tests.oracles import packet_path, run_both

EAGER_SEND = MpiConfig(name="d-eager-send", eager_limit=1 << 16)
EAGER_RDMA = MpiConfig(name="d-eager-rdma", eager_limit=1 << 16,
                       eager_mode="rdma_write")
PIPELINED = MpiConfig(name="d-pipe", eager_limit=1024, rndv_mode="pipelined",
                      frag_size=4096)
RGET = MpiConfig(name="d-rget", eager_limit=1024, rndv_mode="rget")
RPUT = MpiConfig(name="d-rput", eager_limit=1024, rndv_mode="rput")
PROTOCOLS = [EAGER_SEND, EAGER_RDMA, PIPELINED, RGET, RPUT]


def assert_identical(fast, packet, fast_metrics, packet_metrics):
    deltas = compare_runs(fast, packet, fast_metrics, packet_metrics)
    bad = [d for d in deltas if not d.equal]
    assert not bad, "fast path diverged on: " + "; ".join(
        f"{d.measure} fast={d.fast!r} packet={d.packet!r}" for d in bad[:5]
    )


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
    fast, packet, mfast, mpacket = run_both(
        _traffic_app, 4, config=config, label="diff-proto"
    )
    assert_identical(fast, packet, mfast, mpacket)
    # Sanity: the fast run really exercised the macro path.
    assert fast.fabric.engine.bursts_opened > 0
    assert packet.fabric.engine.bursts_opened == 0


def test_nas_lu_differential():
    from repro.nas.lu import lu_app

    fast, packet, mfast, mpacket = run_both(
        lu_app, 4, app_args=("S", 1, None, None), label="diff-lu"
    )
    assert_identical(fast, packet, mfast, mpacket)


def test_nas_cg_differential():
    from repro.nas.cg import cg_app

    fast, packet, mfast, mpacket = run_both(
        cg_app, 4, app_args=("S", 1, None), label="diff-cg"
    )
    assert_identical(fast, packet, mfast, mpacket)


def test_nas_mg_differential():
    # MG runs on the ARMCI runtime, which has its own launcher; compare
    # reports, returns, and elapsed time by hand under both paths.
    from repro.armci.runtime import ArmciConfig, run_armci_app
    from repro.nas.mg import mg_app

    results = []
    for path in (contextlib.nullcontext, packet_path):
        with path():
            results.append(run_armci_app(
                mg_app, 4, config=ArmciConfig(),
                app_args=("S", 1, None, True), label="diff-mg",
            ))
    fast, packet = results
    assert fast.elapsed == packet.elapsed
    assert fast.returns == packet.returns
    for rf, rp in zip(fast.reports, packet.reports):
        assert (rf is None) == (rp is None)
        if rf is not None:
            assert rf.to_dict() == rp.to_dict()


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

    Jittered latencies scramble arrival order across flows, which is
    exactly what forces bursts to close early, yield to competing events,
    and reinsert -- the fallback machinery under test.
    """
    params = NetworkParams(latency_jitter_frac=jitter)
    fast, packet, mfast, mpacket = run_both(
        _stress_app, 4, config=config, params=params,
        app_args=(plan,), label="diff-stress",
    )
    assert_identical(fast, packet, mfast, mpacket)


def test_interleaving_forces_burst_reinserts():
    """The yield/reinsert fallback actually fires on interleaved flows."""

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

    fast, packet, mfast, mpacket = run_both(
        app, 3, config=PIPELINED, label="diff-reinsert"
    )
    assert_identical(fast, packet, mfast, mpacket)
    engine = fast.fabric.engine
    assert engine.bursts_opened > 0
    assert engine.burst_reinserts > 0


def test_packet_oracle_opens_no_burst():
    """Self-check: the oracle side really is per-packet, the other is not."""
    fast, packet, _mf, _mp = run_both(
        _traffic_app, 4, config=EAGER_SEND, label="diff-oracle"
    )
    assert packet.fabric.engine.bursts_opened == 0
    assert packet.fabric.engine.burst_reinserts == 0
    assert fast.fabric.engine.bursts_opened > 0
