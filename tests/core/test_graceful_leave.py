"""Tests for the graceful-departure extension."""

from repro.core import HierarchicalNode
from repro.net import Network
from repro.net.builders import build_switched_cluster
from repro.protocols import deploy


def make(networks=2, hosts=5, seed=1, loss=0.0):
    topo, hostlist = build_switched_cluster(networks, hosts)
    net = Network(topo, seed=seed, loss_rate=loss)
    nodes = deploy(HierarchicalNode, net, hostlist, config=None)
    return net, hostlist, nodes


class TestGracefulLeave:
    def test_leave_removes_instantly_everywhere(self):
        net, hosts, nodes = make()
        net.run(until=15.0)
        leaver = hosts[3]  # ordinary member
        nodes[leaver].leave()
        leave_time = net.now
        net.run(until=16.0)  # ONE second, far below the 5 s crash detection
        for h, node in nodes.items():
            if h != leaver:
                assert leaver not in node.view(), h
        downs = [
            r
            for r in net.trace.records(kind="member_down")
            if r.data["target"] == leaver
        ]
        assert max(r.time for r in downs) - leave_time < 0.5
        assert all(r.data["reason"] == "leave" for r in downs)

    def test_leave_produces_no_crash_detection_later(self):
        net, hosts, nodes = make()
        net.run(until=15.0)
        leaver = hosts[3]
        nodes[leaver].leave()
        net.run(until=40.0)
        downs = [
            r
            for r in net.trace.records(kind="member_down")
            if r.data["target"] == leaver and r.data["reason"] != "leave"
        ]
        assert downs == []

    def test_leader_leave_fails_over(self):
        net, hosts, nodes = make(3, 8, seed=3)
        net.run(until=15.0)
        leader = nodes[hosts[9]].leader_of(0)
        nodes[leader].leave()
        net.run(until=45.0)
        expect = sorted(set(hosts) - {leader})
        for h, node in nodes.items():
            if h != leader:
                assert node.view() == expect, h
        # The group has a working leader again.
        survivors = [h for h in hosts if "-n1-" in h and h != leader]
        assert nodes[survivors[0]].leader_of(0) in survivors

    def test_left_node_can_rejoin(self):
        net, hosts, nodes = make()
        net.run(until=15.0)
        leaver = hosts[3]
        nodes[leaver].leave()
        net.run(until=25.0)
        nodes[leaver].start()
        net.run(until=45.0)
        for node in nodes.values():
            assert node.view() == sorted(hosts)
        # Restart bumped the incarnation past the buried one.
        assert nodes[hosts[0]].directory.get(leaver).incarnation == 2

    def test_leave_under_loss_converges(self):
        net, hosts, nodes = make(3, 8, seed=5, loss=0.05)
        net.run(until=15.0)
        leaver = hosts[12]
        nodes[leaver].leave()
        net.run(until=45.0)
        expect = sorted(set(hosts) - {leaver})
        for h, node in nodes.items():
            if h != leaver:
                assert node.view() == expect, h

    def test_leave_when_not_running_is_noop(self):
        net, hosts, nodes = make()
        net.run(until=15.0)
        nodes[hosts[3]].stop()
        nodes[hosts[3]].leave()  # must not raise or send anything
        net.run(until=16.0)
