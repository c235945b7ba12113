"""Additional coverage: heartbeat payloads, backup selection, group edges."""

import pytest

from repro.cluster import NodeRecord
from repro.core import GroupState, Heartbeat, HierarchicalNode
from repro.net import Network
from repro.net.builders import build_switched_cluster
from repro.protocols import deploy


class TestHeartbeatPayload:
    def test_node_id_proxies_record(self):
        hb = Heartbeat(
            record=NodeRecord("n1", incarnation=3),
            level=0,
            is_leader=True,
            suppressed=False,
            backup="n2",
        )
        assert hb.node_id == "n1"
        assert hb.record.incarnation == 3

    def test_default_update_seq_zero(self):
        hb = Heartbeat(
            record=NodeRecord("n1"), level=0, is_leader=False, suppressed=False
        )
        assert hb.update_seq == 0


class TestBackupSelection:
    def test_leader_designates_a_backup(self):
        topo, hosts = build_switched_cluster(1, 5)
        net = Network(topo, seed=3)
        nodes = deploy(HierarchicalNode, net, hosts)
        net.run(until=12.0)
        leader = nodes[min(hosts)]
        assert leader.is_leader(0)
        backup = leader._ctx.groups[0].my_backup
        assert backup in hosts and backup != leader.node_id

    def test_backup_replaced_when_it_dies(self):
        topo, hosts = build_switched_cluster(1, 5)
        net = Network(topo, seed=3)
        nodes = deploy(HierarchicalNode, net, hosts)
        net.run(until=12.0)
        leader = nodes[min(hosts)]
        backup = leader._ctx.groups[0].my_backup
        nodes[backup].stop()
        net.crash_host(backup)
        net.run(until=30.0)
        new_backup = leader._ctx.groups[0].my_backup
        assert new_backup != backup
        assert new_backup in set(hosts) - {backup, leader.node_id}

    def test_backup_announced_in_heartbeats(self):
        topo, hosts = build_switched_cluster(1, 4)
        net = Network(topo, seed=3)
        nodes = deploy(HierarchicalNode, net, hosts)
        net.run(until=12.0)
        leader_id = min(hosts)
        follower = nodes[hosts[-1]]
        peer = follower._ctx.groups[0].peers[leader_id]
        assert peer.is_leader
        assert peer.backup == nodes[leader_id]._ctx.groups[0].my_backup


class TestGroupEdgeCases:
    def test_singleton_chain_to_max_level(self):
        # One single host: leader of every level up to max_ttl.
        topo, hosts = build_switched_cluster(1, 1)
        net = Network(topo, seed=1)
        nodes = deploy(HierarchicalNode, net, hosts)
        net.run(until=20.0)
        node = nodes[hosts[0]]
        assert node.levels() == [0, 1, 2, 3]
        assert all(node.is_leader(level) for level in node.levels())
        assert node.view() == hosts

    def test_two_hosts_one_leader(self):
        topo, hosts = build_switched_cluster(1, 2)
        net = Network(topo, seed=1)
        nodes = deploy(HierarchicalNode, net, hosts)
        net.run(until=12.0)
        leaders = [h for h in hosts if nodes[h].is_leader(0)]
        assert leaders == [min(hosts)]
        assert all(len(n.view()) == 2 for n in nodes.values())

    def test_group_members_listing(self):
        topo, hosts = build_switched_cluster(1, 4)
        net = Network(topo, seed=1)
        nodes = deploy(HierarchicalNode, net, hosts)
        net.run(until=12.0)
        node = nodes[hosts[0]]
        members = node.group_members(0)
        assert sorted(members + [hosts[0]]) == sorted(hosts)
        assert node.group_members(7) == []

    def test_top_level_property(self):
        topo, hosts = build_switched_cluster(2, 3)
        net = Network(topo, seed=1)
        nodes = deploy(HierarchicalNode, net, hosts)
        net.run(until=12.0)
        root = nodes[min(hosts)]
        assert root.top_level >= 1
        follower = nodes[hosts[1]]
        assert follower.top_level == 0
