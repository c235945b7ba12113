"""Unit/integration tests for the all-to-all baseline."""

from repro.cluster import ServiceSpec
from repro.net import Network
from repro.net.builders import build_switched_cluster
from repro.protocols import AllToAllNode, ProtocolConfig, deploy


def make_cluster(networks=1, hosts=4, seed=1, loss=0.0):
    topo, hosts_list = build_switched_cluster(networks, hosts)
    net = Network(topo, seed=seed, loss_rate=loss)
    return net, hosts_list


class TestFormation:
    def test_full_view_after_warmup(self):
        net, hosts = make_cluster(1, 5)
        nodes = deploy(AllToAllNode, net, hosts)
        net.run(until=3.0)
        for node in nodes.values():
            assert node.view() == sorted(hosts)

    def test_cross_network_view(self):
        net, hosts = make_cluster(3, 4)
        nodes = deploy(AllToAllNode, net, hosts)
        net.run(until=3.0)
        assert all(len(n.view()) == 12 for n in nodes.values())

    def test_member_up_traced_for_every_discovery(self):
        net, hosts = make_cluster(1, 3)
        deploy(AllToAllNode, net, hosts)
        net.run(until=3.0)
        ups = net.trace.records(kind="member_up")
        # each of 3 nodes discovers 2 peers
        assert len(ups) == 6

    def test_services_propagate(self):
        net, hosts = make_cluster(1, 3)
        specs = {hosts[0]: [ServiceSpec.make("index", "1-2")]}
        nodes = deploy(AllToAllNode, net, hosts, services=specs)
        net.run(until=3.0)
        found = nodes[hosts[2]].directory.lookup_service("index", "2")
        assert [r.node_id for r in found] == [hosts[0]]

    def test_late_joiner_discovered(self):
        net, hosts = make_cluster(1, 4)
        nodes = deploy(AllToAllNode, net, hosts[:3])
        late = AllToAllNode(net, hosts[3])
        net.run(until=2.0)
        late.start()
        net.run(until=5.0)
        assert all(hosts[3] in n.view() for n in nodes.values())
        assert late.view() == sorted(hosts)


class TestDetection:
    def test_failure_detected_in_about_max_loss_periods(self):
        net, hosts = make_cluster(1, 5)
        nodes = deploy(AllToAllNode, net, hosts)
        net.run(until=3.0)
        victim = hosts[2]
        nodes[victim].stop()
        net.crash_host(victim)
        kill_time = net.now
        net.run(until=20.0)
        downs = net.trace.records(kind="member_down")
        observers = {r.node for r in downs if r.data["target"] == victim}
        assert observers == set(hosts) - {victim}
        detect = min(r.time for r in downs if r.data["target"] == victim)
        config = ProtocolConfig()
        assert config.fail_timeout <= detect - kill_time <= config.fail_timeout + 2 * config.heartbeat_period

    def test_no_false_positives_without_failures(self):
        net, hosts = make_cluster(2, 5)
        deploy(AllToAllNode, net, hosts)
        net.run(until=30.0)
        assert net.trace.records(kind="member_down") == []

    def test_no_false_positives_with_light_loss(self):
        net, hosts = make_cluster(1, 5, loss=0.02)
        deploy(AllToAllNode, net, hosts)
        net.run(until=40.0)
        # P(5 consecutive losses) = 0.02^5: effectively impossible here.
        assert net.trace.records(kind="member_down") == []

    def test_restart_rejoins_with_higher_incarnation(self):
        net, hosts = make_cluster(1, 3)
        nodes = deploy(AllToAllNode, net, hosts)
        net.run(until=3.0)
        victim = hosts[0]
        nodes[victim].stop()
        net.crash_host(victim)
        net.run(until=12.0)
        net.recover_host(victim)
        nodes[victim].start()
        net.run(until=20.0)
        observer = nodes[hosts[1]]
        assert victim in observer.view()
        assert observer.directory.get(victim).incarnation == 2

    def test_stopped_node_clears_state(self):
        net, hosts = make_cluster(1, 3)
        nodes = deploy(AllToAllNode, net, hosts)
        net.run(until=3.0)
        nodes[hosts[0]].stop()
        assert nodes[hosts[0]].view() == []


class TestPartition:
    def test_partition_and_heal(self):
        net, hosts = make_cluster(3, 4)
        nodes = deploy(AllToAllNode, net, hosts)
        net.run(until=5.0)
        net.fail_device("dc0-sw2")
        net.run(until=25.0)
        outside = [h for h in hosts if "-n2-" not in h]
        inside = [h for h in hosts if "-n2-" in h]
        for h in outside:
            assert nodes[h].view() == sorted(outside)
        for h in inside:
            # Behind a dead L2 switch even group peers are unreachable.
            assert nodes[h].view() == [h]
        net.recover_device("dc0-sw2")
        net.run(until=45.0)
        for node in nodes.values():
            assert node.view() == sorted(hosts)

    def test_detection_during_partition_is_symmetric(self):
        net, hosts = make_cluster(2, 4)
        deploy(AllToAllNode, net, hosts)
        net.run(until=5.0)
        net.fail_device("dc0-sw1")
        net.run(until=20.0)
        downs = net.trace.records(kind="member_down")
        # Every pair across the cut detected the other side.
        cross = {(r.node, r.data["target"]) for r in downs}
        for a in hosts[:4]:
            for b in hosts[4:]:
                assert (a, b) in cross and (b, a) in cross


class TestTraffic:
    def test_packet_rate_scales_quadratically(self):
        def rx_packets(n):
            net, hosts = make_cluster(1, n)
            deploy(AllToAllNode, net, hosts)
            net.meter.reset()
            net.run(until=11.0)
            return net.meter.packets(direction="rx")

        small, large = rx_packets(4), rx_packets(8)
        # n(n-1) scaling: 8 nodes should see ~56/12 ≈ 4.7x the packets.
        assert 3.5 < large / small < 6.0

    def test_update_value_propagates_immediately(self):
        net, hosts = make_cluster(1, 3)
        nodes = deploy(AllToAllNode, net, hosts)
        net.run(until=3.0)
        nodes[hosts[0]].update_value("Port", "8080")
        net.run(until=3.2)  # much less than a heartbeat period
        rec = nodes[hosts[1]].directory.get(hosts[0])
        assert rec.attrs["Port"] == "8080"

    def test_delete_value(self):
        net, hosts = make_cluster(1, 2)
        nodes = deploy(AllToAllNode, net, hosts)
        net.run(until=3.0)
        nodes[hosts[0]].update_value("k", "v")
        net.run(until=4.0)
        nodes[hosts[0]].delete_value("k")
        net.run(until=5.0)
        assert "k" not in nodes[hosts[1]].directory.get(hosts[0]).attrs

    def test_heartbeat_size_follows_member_size(self):
        config = ProtocolConfig(member_size=100)
        net, hosts = make_cluster(1, 2)
        deploy(AllToAllNode, net, hosts, config=config)
        net.run(until=2.5)
        hb_bytes = net.meter.bytes_by_kind("heartbeat")
        packets = net.meter.packets(direction="rx")
        assert hb_bytes == packets * 128
