"""Tests for latency jitter: determinism, bounds, and invariant stability."""

import pytest

from repro.mpisim import MpiConfig
from repro.netsim import Fabric, NetworkParams
from repro.runtime import run_app
from repro.sim import Engine


def _one_way(params, seed=0, nbytes=10_000):
    eng = Engine()
    fab = Fabric(eng, params, 2, seed=seed)
    fab.nic(0).post_send(fab.nic(1), nbytes, payload=None)
    eng.run()
    return eng.now


class TestJitterMechanics:
    def test_zero_jitter_is_exact(self):
        params = NetworkParams(latency=10e-6, bandwidth=100e6,
                               per_message_overhead=0.0)
        assert _one_way(params) == pytest.approx(10e-6 + 1e-4)

    def test_jitter_stays_within_band(self):
        params = NetworkParams(latency=10e-6, bandwidth=100e6,
                               latency_jitter_frac=0.3,
                               per_message_overhead=0.0)
        for seed in range(20):
            t = _one_way(params, seed=seed)
            serialization = 1e-4
            lat = t - serialization
            assert 10e-6 * 0.7 - 1e-12 <= lat <= 10e-6 * 1.3 + 1e-12

    def test_same_seed_replays_identically(self):
        params = NetworkParams(latency_jitter_frac=0.2)
        assert _one_way(params, seed=7) == _one_way(params, seed=7)

    def test_different_seeds_differ(self):
        params = NetworkParams(latency_jitter_frac=0.2)
        times = {_one_way(params, seed=s) for s in range(8)}
        assert len(times) > 1

    def test_a_negative_seed_fails_before_any_rank_is_built(self):
        started = []

        def app(ctx):
            started.append(ctx.rank)
            yield from ctx.compute(1e-6)

        with pytest.raises(ValueError, match="seed"):
            run_app(app, 2, params=NetworkParams(latency_jitter_frac=0.1),
                    seed=-5)
        assert started == []

    def test_jitter_validation(self):
        with pytest.raises(ValueError):
            NetworkParams(latency_jitter_frac=1.0)
        with pytest.raises(ValueError):
            NetworkParams(latency_jitter_frac=-0.1)


class TestInvariantsUnderJitter:
    """The bounding algorithm must stay sound on an irregular network."""

    @pytest.mark.parametrize("jitter", [0.1, 0.4, 0.9])
    def test_bounds_nest_for_full_app_run(self, jitter):
        params = NetworkParams(latency_jitter_frac=jitter)
        config = MpiConfig(name=f"jit{jitter}", eager_limit=4096,
                           rndv_mode="rget", leave_pinned=True)

        def app(ctx):
            other = 1 - ctx.rank
            for i in range(20):
                rreq = yield from ctx.comm.irecv(other, 1)
                sreq = yield from ctx.comm.isend(other, 1, 50_000 if i % 2 else 512)
                yield from ctx.compute(2e-4)
                yield from ctx.comm.waitall([sreq, rreq])

        result = run_app(app, 2, config=config, params=params)
        for rank in range(2):
            m = result.report(rank).total
            assert 0.0 <= m.min_overlap_time <= m.max_overlap_time + 1e-12
            assert m.max_overlap_time <= m.data_transfer_time + 1e-9
            assert m.transfer_count == sum(m.case_counts.values())

    def test_jittered_run_is_reproducible(self):
        params = NetworkParams(latency_jitter_frac=0.25)
        config = MpiConfig(name="jit-repro")

        def app(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(1, 1, 10_000)
            else:
                yield from ctx.comm.recv(0, 1)

        a = run_app(app, 2, config=config, params=params)
        b = run_app(app, 2, config=config, params=params)
        assert a.elapsed == b.elapsed
        assert (
            a.report(0).total.communication_call_time
            == b.report(0).total.communication_call_time
        )
