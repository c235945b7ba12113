"""Unit tests for unicast transport, virtual addresses, bandwidth meter."""

import pytest

from repro.net import BandwidthMeter, Network
from repro.net.builders import build_switched_cluster, build_two_datacenters


def make_net(networks=1, hosts=3, **kwargs):
    topo, hosts_list = build_switched_cluster(networks, hosts)
    return Network(topo, **kwargs), hosts_list


class Collector:
    def __init__(self, net):
        self.net = net
        self.received = []

    def __call__(self, packet):
        self.received.append((self.net.now, packet))


class TestUnicast:
    def test_basic_delivery(self):
        net, hosts = make_net()
        sink = Collector(net)
        net.bind(hosts[1], "membership", sink)
        ok = net.unicast(hosts[0], hosts[1], kind="poll", payload={"q": 1}, size=64)
        net.run()
        assert ok
        assert len(sink.received) == 1
        assert sink.received[0][1].payload == {"q": 1}

    def test_delivery_latency(self):
        net, hosts = make_net()
        sink = Collector(net)
        net.bind(hosts[1], "membership", sink)
        net.unicast(hosts[0], hosts[1], kind="poll", payload=None, size=1)
        net.run()
        assert sink.received[0][0] == pytest.approx(
            net.topo.unicast_latency(hosts[0], hosts[1])
        )

    def test_ports_are_independent(self):
        net, hosts = make_net()
        a, b = Collector(net), Collector(net)
        net.bind(hosts[1], "membership", a)
        net.bind(hosts[1], "service", b)
        net.unicast(hosts[0], hosts[1], kind="x", payload=None, size=1, port="service")
        net.run()
        assert len(a.received) == 0 and len(b.received) == 1

    def test_unbound_port_drops(self):
        net, hosts = make_net()
        ok = net.unicast(hosts[0], hosts[1], kind="x", payload=None, size=1)
        net.run()
        assert ok  # scheduled, but silently dropped at the receiver

    def test_dead_sender_does_not_send(self):
        net, hosts = make_net()
        net.bind(hosts[1], "membership", Collector(net))
        net.topo.set_up(hosts[0], False)
        assert not net.unicast(hosts[0], hosts[1], kind="x", payload=None, size=1)

    def test_dead_receiver_drops(self):
        net, hosts = make_net()
        sink = Collector(net)
        net.bind(hosts[1], "membership", sink)
        net.unicast(hosts[0], hosts[1], kind="x", payload=None, size=1)
        net.crash_host(hosts[1])
        net.run()
        assert sink.received == []

    def test_unknown_destination_returns_false(self):
        net, hosts = make_net()
        assert not net.unicast(hosts[0], "no-such-host", kind="x", payload=None, size=1)

    def test_cross_dc_unicast_pays_wan_latency(self):
        topo, dca, dcb = build_two_datacenters(1, 2)
        net = Network(topo)
        sink = Collector(net)
        net.bind(dcb[0], "membership", sink)
        net.unicast(dca[0], dcb[0], kind="x", payload=None, size=1)
        net.run()
        assert sink.received[0][0] >= 0.045


class TestVirtualAddresses:
    def test_send_to_virtual_address(self):
        net, hosts = make_net()
        sink = Collector(net)
        net.bind(hosts[1], "membership", sink)
        net.transport.bind_address("vip-1", hosts[1])
        net.unicast(hosts[0], "vip-1", kind="x", payload=None, size=1)
        net.run()
        assert len(sink.received) == 1

    def test_failover_rebinds(self):
        net, hosts = make_net()
        s1, s2 = Collector(net), Collector(net)
        net.bind(hosts[1], "membership", s1)
        net.bind(hosts[2], "membership", s2)
        net.transport.bind_address("vip", hosts[1])
        net.unicast(hosts[0], "vip", kind="x", payload=None, size=1)
        net.run()
        net.transport.bind_address("vip", hosts[2])  # IP takeover
        net.unicast(hosts[0], "vip", kind="x", payload=None, size=1)
        net.run()
        assert len(s1.received) == 1 and len(s2.received) == 1

    def test_resolve(self):
        net, hosts = make_net()
        net.transport.bind_address("vip", hosts[0])
        assert net.transport.resolve("vip") == hosts[0]
        assert net.transport.resolve(hosts[1]) == hosts[1]
        assert net.transport.resolve("nothing") is None

    def test_release_address(self):
        net, hosts = make_net()
        net.transport.bind_address("vip", hosts[0])
        net.transport.release_address("vip")
        assert not net.unicast(hosts[1], "vip", kind="x", payload=None, size=1)


class TestRouteCache:
    def test_repeat_sends_cache_route(self):
        net, hosts = make_net()
        sink = Collector(net)
        net.bind(hosts[1], "membership", sink)
        for _ in range(3):
            net.unicast(hosts[0], hosts[1], kind="x", payload=None, size=1)
        net.run()
        assert len(sink.received) == 3
        assert (hosts[0], hosts[1]) in net.transport._routes

    def test_unroutable_destination_cached_negative(self):
        net, hosts = make_net()
        assert not net.unicast(hosts[0], "ghost", kind="x", payload=None, size=1)
        assert net.transport._routes[(hosts[0], "ghost")] is None

    def test_address_takeover_invalidates_cached_route(self):
        net, hosts = make_net()
        s1, s2 = Collector(net), Collector(net)
        net.bind(hosts[1], "membership", s1)
        net.bind(hosts[2], "membership", s2)
        net.transport.bind_address("vip", hosts[1])
        net.unicast(hosts[0], "vip", kind="x", payload=None, size=1)
        net.run()
        net.transport.bind_address("vip", hosts[2])
        net.unicast(hosts[0], "vip", kind="x", payload=None, size=1)
        net.run()
        assert len(s1.received) == 1 and len(s2.received) == 1

    def test_release_address_invalidates_cached_route(self):
        net, hosts = make_net()
        net.bind(hosts[1], "membership", Collector(net))
        net.transport.bind_address("vip", hosts[1])
        assert net.unicast(hosts[0], "vip", kind="x", payload=None, size=1)
        net.run()
        net.transport.release_address("vip")
        assert not net.unicast(hosts[0], "vip", kind="x", payload=None, size=1)

    def test_topology_change_invalidates_cached_route(self):
        net, hosts = make_net(networks=2, hosts=2)
        sink = Collector(net)
        net.bind(hosts[2], "membership", sink)
        assert net.unicast(hosts[0], hosts[2], kind="x", payload=None, size=1)
        net.run()
        net.fail_device("dc0-sw1")  # partitions hosts[2]'s segment
        assert not net.unicast(hosts[0], hosts[2], kind="x", payload=None, size=1)
        net.recover_device("dc0-sw1")
        assert net.unicast(hosts[0], hosts[2], kind="x", payload=None, size=1)
        net.run()
        assert len(sink.received) == 2


class TestBandwidthMeter:
    def test_totals(self):
        m = BandwidthMeter()
        m.record(1.0, "h1", "rx", "hb", 100)
        m.record(2.0, "h1", "rx", "hb", 100)
        m.record(2.0, "h2", "rx", "update", 50)
        assert m.bytes("h1", "rx") == 200
        assert m.bytes(direction="rx") == 250
        assert m.packets(direction="rx") == 3
        assert m.bytes_by_kind("hb") == 200

    def test_rates_with_explicit_duration(self):
        m = BandwidthMeter()
        m.record(0.0, "h1", "rx", "hb", 500)
        m.record(10.0, "h1", "rx", "hb", 500)
        assert m.aggregate_rate(duration=10.0) == pytest.approx(100.0)
        assert m.packet_rate("h1", duration=10.0) == pytest.approx(0.2)

    def test_rate_defaults_to_observed_span(self):
        m = BandwidthMeter()
        m.record(0.0, "h1", "rx", "hb", 100)
        m.record(4.0, "h1", "rx", "hb", 100)
        assert m.aggregate_rate() == pytest.approx(50.0)

    def test_zero_duration_rate_is_zero(self):
        m = BandwidthMeter()
        m.record(1.0, "h1", "rx", "hb", 100)
        assert m.aggregate_rate() == 0.0

    def test_per_host_rates(self):
        m = BandwidthMeter()
        m.record(0.0, "h1", "rx", "hb", 100)
        m.record(10.0, "h2", "rx", "hb", 300)
        rates = m.per_host_rates(duration=10.0)
        assert rates == {"h1": 10.0, "h2": 30.0}

    def test_reset(self):
        m = BandwidthMeter()
        m.record(0.0, "h", "rx", "hb", 10)
        m.reset()
        assert m.bytes(direction="rx") == 0
        assert m.duration == 0.0


class TestLossGuards:
    """Mirror of the multicast loss-model guards on the unicast path."""

    def test_total_loss_is_legal_and_drops_everything(self):
        import random

        from repro.net.builders import build_switched_cluster
        from repro.net.transport import UnicastTransport
        from repro.sim.engine import Simulator

        topo, hosts = build_switched_cluster(1, 3)
        sim = Simulator()
        transport = UnicastTransport(
            sim, topo, BandwidthMeter(), loss_rate=1.0,
            loss_rng=random.Random(1),
        )
        from repro.net.packet import Packet

        received = []
        transport.bind(hosts[1], "membership", received.append)
        for _ in range(20):
            transport.send(
                Packet(src=hosts[0], kind="poll", payload=None, size=8,
                       dst=hosts[1])
            )
        sim.run()
        assert received == []

    def test_lossy_transport_without_rng_rejected(self):
        from repro.net.transport import UnicastTransport
        from repro.sim.engine import Simulator

        topo, _hosts = build_switched_cluster(1, 3)
        with pytest.raises(ValueError, match="loss_rng"):
            UnicastTransport(Simulator(), topo, BandwidthMeter(),
                             loss_rate=0.3, loss_rng=None)

    def test_out_of_range_loss_rate_rejected(self):
        from repro.net.transport import UnicastTransport
        from repro.sim.engine import Simulator

        topo, _hosts = build_switched_cluster(1, 3)
        for bad in (1.5, -0.1):
            with pytest.raises(ValueError, match="loss_rate"):
                UnicastTransport(Simulator(), topo, BandwidthMeter(),
                                 loss_rate=bad)
