"""Tests for the NIC / fabric substrate: timing model, verbs, CQ semantics."""

import pytest

from repro.netsim import CompletionKind, Fabric, NetworkParams, RegistrationCache
from repro.sim import Engine


@pytest.fixture
def params():
    # Round numbers for hand computation: 10 us latency, 100 MB/s.
    return NetworkParams(
        latency=10e-6,
        bandwidth=100e6,
        rdma_read_request_latency=5e-6,
        per_message_overhead=0.0,  # keep hand-computed times exact
    )


@pytest.fixture
def net(params):
    eng = Engine()
    fab = Fabric(eng, params, num_nodes=4)
    return eng, fab


class TestSendChannel:
    def test_arrival_time_is_latency_plus_serialization(self, net, params):
        eng, fab = net
        a, b = fab.nic(0), fab.nic(1)
        a.post_send(b, 1_000_000, payload="hello")
        eng.run()
        # 1 MB at 100 MB/s = 10 ms; + 10 us latency.
        assert eng.now == pytest.approx(0.01 + 10e-6)
        assert len(b.inbound) == 1
        pkt = b.inbound[0]
        assert pkt.src_node == 0
        assert pkt.payload == "hello"
        assert pkt.nbytes == 1_000_000

    def test_local_completion_at_tx_end_before_arrival(self, net, params):
        eng, fab = net
        a, b = fab.nic(0), fab.nic(1)
        a.post_send(b, 1_000_000, payload="p", context="ctx")
        # Run just past TX completion but before remote arrival.
        eng.run(until=0.01 + 1e-9)
        assert len(a.cq) == 1
        assert a.cq[0].kind is CompletionKind.SEND_DONE
        assert a.cq[0].context == "ctx"
        assert len(b.inbound) == 0

    def test_tx_port_serializes_back_to_back_sends(self, net, params):
        eng, fab = net
        a, b = fab.nic(0), fab.nic(1)
        a.post_send(b, 1_000_000, payload=1)
        a.post_send(b, 1_000_000, payload=2)
        eng.run()
        # Two 10 ms serializations share one port: 20 ms + latency.
        assert eng.now == pytest.approx(0.02 + 10e-6)
        assert [p.payload for p in b.inbound] == [1, 2]

    def test_different_ports_transmit_in_parallel(self, params):
        eng = Engine()
        fab = Fabric(eng, params, num_nodes=2, nics_per_node=2)
        fab.nic(0, 0).post_send(fab.nic(1, 0), 1_000_000, payload=1)
        fab.nic(0, 1).post_send(fab.nic(1, 1), 1_000_000, payload=2)
        eng.run()
        assert eng.now == pytest.approx(0.01 + 10e-6)

    def test_incast_serializes_at_rx_port(self, net, params):
        eng, fab = net
        c = fab.nic(2)
        fab.nic(0).post_send(c, 1_000_000, payload=1)
        fab.nic(1).post_send(c, 1_000_000, payload=2)
        eng.run()
        # Both arrive head at ~10us; RX drains one at a time: ~20 ms total.
        assert eng.now == pytest.approx(0.02 + 10e-6)
        assert len(c.inbound) == 2

    def test_counters(self, net):
        eng, fab = net
        a, b = fab.nic(0), fab.nic(1)
        a.post_send(b, 500, payload=None)
        eng.run()
        assert a.bytes_sent == 500
        assert a.messages_sent == 1
        assert b.bytes_received == 500
        assert b.messages_received == 1
        assert fab.total_bytes_on_wire() == 500

    def test_send_to_self_rejected(self, net):
        _, fab = net
        with pytest.raises(ValueError):
            fab.nic(0).post_send(fab.nic(0), 10, payload=None)

    def test_cross_engine_rejected(self, params):
        f1 = Fabric(Engine(), params, 2)
        f2 = Fabric(Engine(), params, 2)
        with pytest.raises(ValueError):
            f1.nic(0).post_send(f2.nic(1), 10, payload=None)


class TestRdmaWrite:
    def test_silent_write_no_inbound_packet(self, net, params):
        eng, fab = net
        a, b = fab.nic(0), fab.nic(1)
        a.post_rdma_write(b, 1_000_000, context="w")
        eng.run()
        assert len(b.inbound) == 0
        assert len(a.cq) == 1
        assert a.cq[0].kind is CompletionKind.RDMA_WRITE_DONE
        assert eng.now == pytest.approx(0.01 + 10e-6)

    def test_write_with_notify_delivers_packet(self, net):
        eng, fab = net
        a, b = fab.nic(0), fab.nic(1)
        a.post_rdma_write(b, 1000, context="w", notify_payload={"fin": True})
        eng.run()
        assert len(b.inbound) == 1
        assert b.inbound[0].payload == {"fin": True}

    def test_local_completion_waits_for_remote_placement(self, net, params):
        eng, fab = net
        a, b = fab.nic(0), fab.nic(1)
        a.post_rdma_write(b, 1_000_000, context="w")
        eng.run(until=0.01)  # TX done, but not yet placed remotely
        assert len(a.cq) == 0


class TestRdmaRead:
    def test_read_timing_includes_request_latency(self, net, params):
        eng, fab = net
        a, b = fab.nic(0), fab.nic(1)
        a.post_rdma_read(b, 1_000_000, context="r")
        eng.run()
        # 5 us request + 10 ms stream on target TX + 10 us latency.
        assert eng.now == pytest.approx(5e-6 + 0.01 + 10e-6)
        assert len(a.cq) == 1
        assert a.cq[0].kind is CompletionKind.RDMA_READ_DONE
        assert a.cq[0].context == "r"

    def test_read_does_not_touch_target_cpu_queues(self, net):
        eng, fab = net
        a, b = fab.nic(0), fab.nic(1)
        a.post_rdma_read(b, 1000)
        eng.run()
        assert len(b.inbound) == 0
        assert len(b.cq) == 0

    def test_read_contends_with_target_tx(self, net, params):
        eng, fab = net
        a, b = fab.nic(0), fab.nic(1)
        # Target is busy sending 1 MB elsewhere when the read request lands.
        b.post_send(fab.nic(2), 1_000_000, payload=None)
        a.post_rdma_read(b, 1_000_000)
        eng.run()
        # Read data streams only after b's TX frees at 10 ms.
        assert eng.now == pytest.approx(0.02 + 10e-6)

    def test_read_accounts_traffic_on_target(self, net):
        eng, fab = net
        a, b = fab.nic(0), fab.nic(1)
        a.post_rdma_read(b, 2048)
        eng.run()
        assert b.bytes_sent == 2048
        assert a.bytes_received == 2048


class TestWaitActivity:
    def test_waiter_woken_on_arrival(self, net):
        eng, fab = net
        a, b = fab.nic(0), fab.nic(1)
        wake_times = []

        def waiter():
            yield b.wait_activity()
            wake_times.append(eng.now)

        eng.process(waiter())
        a.post_send(b, 1000, payload=None)
        eng.run()
        assert wake_times == [pytest.approx(10e-6 + 1000 / 100e6)]

    def test_wait_fires_immediately_if_pending(self, net):
        eng, fab = net
        a, b = fab.nic(0), fab.nic(1)
        a.post_send(b, 100, payload=None)
        eng.run()

        def late_waiter():
            yield b.wait_activity()
            return eng.now

        t_end = eng.now
        proc = eng.process(late_waiter())
        eng.run()
        assert proc.value == t_end

    def test_waiter_woken_on_local_cq(self, net):
        eng, fab = net
        a, b = fab.nic(0), fab.nic(1)
        woken = []

        def waiter():
            yield a.wait_activity()
            woken.append(eng.now)

        eng.process(waiter())
        a.post_send(b, 1_000_000, payload=None)
        eng.run()
        assert woken and woken[0] == pytest.approx(0.01)


class TestFabric:
    def test_shape_validation(self, params):
        with pytest.raises(ValueError):
            Fabric(Engine(), params, 0)
        with pytest.raises(ValueError):
            Fabric(Engine(), params, 2, nics_per_node=0)

    def test_nics_of_returns_all_rails(self, params):
        fab = Fabric(Engine(), params, 2, nics_per_node=3)
        assert len(fab.nics_of(1)) == 3
        assert fab.nic(1, 2) is fab.nics_of(1)[2]

    def test_repr(self, params, net):
        _, fab = net
        assert "4 nodes" in repr(fab)
        assert "Nic node=0" in repr(fab.nic(0))


class TestNetworkParams:
    def test_transfer_time_composition(self, params):
        assert params.transfer_time(1_000_000) == pytest.approx(10e-6 + 0.01)

    def test_copy_and_pin_times(self):
        p = NetworkParams()
        assert p.copy_time(0) == pytest.approx(p.host_copy_latency)
        assert p.pin_time(0) == pytest.approx(p.pin_base_cost)
        assert p.pin_time(1 << 20) > p.pin_base_cost

    def test_negative_param_rejected(self):
        with pytest.raises(ValueError):
            NetworkParams(latency=-1.0)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            NetworkParams(bandwidth=0.0)


class TestRegistrationCache:
    def test_miss_pays_pin_cost_hit_is_free(self, params):
        cache = RegistrationCache(params)
        cost1 = cache.register("buf", 1 << 20)
        assert cost1 == pytest.approx(params.pin_time(1 << 20))
        assert cache.register("buf", 1 << 20) == 0.0
        assert cache.hits == 1 and cache.misses == 1

    def test_smaller_rereg_is_hit_larger_is_miss(self, params):
        cache = RegistrationCache(params)
        cache.register("buf", 1000)
        assert cache.register("buf", 500) == 0.0
        assert cache.register("buf", 2000) > 0.0
        assert cache.pinned_bytes == 2000

    def test_lru_eviction_order(self, params):
        cache = RegistrationCache(params, max_entries=2)
        cache.register("a", 10)
        cache.register("b", 10)
        cache.register("a", 10)  # refresh a
        cache.register("c", 10)  # evicts b
        assert cache.register("a", 10) == 0.0
        assert cache.register("b", 10) > 0.0
        assert cache.evictions >= 1

    def test_byte_limit_evicts(self, params):
        cache = RegistrationCache(params, max_entries=100, max_bytes=1500)
        cache.register("a", 1000)
        cache.register("b", 1000)  # over byte budget -> a evicted
        assert cache.pinned_bytes == 1000
        assert cache.register("b", 1000) == 0.0
        assert cache.register("a", 1000) > 0.0

    def test_disabled_cache_always_pays(self, params):
        cache = RegistrationCache(params, max_entries=0)
        assert cache.register("a", 10) > 0.0
        assert cache.register("a", 10) > 0.0
        assert len(cache) == 0

    def test_invalidate_and_clear(self, params):
        cache = RegistrationCache(params)
        cache.register("a", 10)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        cache.register("b", 10)
        cache.clear()
        assert len(cache) == 0
        assert cache.pinned_bytes == 0.0

    def test_negative_size_rejected(self, params):
        with pytest.raises(ValueError):
            RegistrationCache(params).register("a", -1)

    def test_negative_limits_rejected(self, params):
        with pytest.raises(ValueError):
            RegistrationCache(params, max_entries=-1)
