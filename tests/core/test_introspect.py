"""Tests for hierarchy introspection helpers."""

import pytest

from repro.core import (
    HierarchicalNode,
    hierarchy_invariant_errors,
    hierarchy_snapshot,
    render_hierarchy,
)
from repro.net import Network
from repro.net.builders import build_switched_cluster
from repro.protocols import deploy


@pytest.fixture(scope="module")
def cluster():
    topo, hosts = build_switched_cluster(3, 4)
    net = Network(topo, seed=5)
    nodes = deploy(HierarchicalNode, net, hosts)
    net.run(until=14.0)
    return net, hosts, nodes


class TestSnapshot:
    def test_level0_groups_match_networks(self, cluster):
        net, hosts, nodes = cluster
        groups = [g for g in hierarchy_snapshot(nodes) if g.level == 0]
        assert len(groups) == 3
        for g in groups:
            assert len(g.members) == 4
            assert g.leader == min(g.members)

    def test_level1_group_contains_level0_leaders(self, cluster):
        net, hosts, nodes = cluster
        snap = hierarchy_snapshot(nodes)
        l0_leaders = {g.leader for g in snap if g.level == 0}
        l1 = [g for g in snap if g.level == 1]
        assert len(l1) == 1
        assert set(l1[0].members) == l0_leaders

    def test_groups_sorted(self, cluster):
        net, hosts, nodes = cluster
        snap = hierarchy_snapshot(nodes)
        assert snap == sorted(snap, key=lambda g: (g.level, g.leader))

    def test_stopped_nodes_excluded(self, cluster):
        net, hosts, nodes = cluster
        # Build a copy-dict with one stopped node object (do not mutate the
        # module-scoped cluster's real state).
        import copy

        fake = dict(nodes)

        class Stopped:
            running = False

        fake[hosts[0]] = Stopped()
        snap = hierarchy_snapshot(fake)
        assert all(hosts[0] not in g.members for g in snap)


class TestRender:
    def test_render_contains_all_levels(self, cluster):
        net, hosts, nodes = cluster
        text = render_hierarchy(nodes)
        assert "L0 [" in text and "L1 [" in text
        assert text.count("L0 [") == 3

    def test_alone_marker_for_singletons(self, cluster):
        net, hosts, nodes = cluster
        text = render_hierarchy(nodes)
        # The chain above level 1 is a single node per level.
        assert "(alone)" in text


class TestInvariants:
    def test_healthy_cluster_has_no_errors(self, cluster):
        net, hosts, nodes = cluster
        assert hierarchy_invariant_errors(nodes) == []

    def test_detects_mutual_leaders(self):
        topo, hosts = build_switched_cluster(1, 3)
        net = Network(topo, seed=1)
        nodes = deploy(HierarchicalNode, net, hosts)
        net.run(until=12.0)
        # Corrupt: make a follower believe it leads while seeing the leader.
        follower = nodes[hosts[2]]
        follower._ctx.groups[0].i_am_leader = True
        errors = hierarchy_invariant_errors(nodes)
        assert any("sees leaders" in e for e in errors)

    def test_detects_orphan_participation(self):
        topo, hosts = build_switched_cluster(1, 3)
        net = Network(topo, seed=1)
        nodes = deploy(HierarchicalNode, net, hosts)
        net.run(until=12.0)
        follower = nodes[hosts[2]]
        from repro.core.groups import GroupState

        follower._ctx.groups[1] = GroupState(1)  # joined L1 without leading L0
        errors = hierarchy_invariant_errors(nodes)
        assert any("without leading" in e for e in errors)
