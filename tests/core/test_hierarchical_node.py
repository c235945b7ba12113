"""Integration tests for the hierarchical protocol on real topologies."""

import pytest

from repro.chaos import InvariantChecker
from repro.cluster import ServiceSpec
from repro.core import HierarchicalConfig, HierarchicalNode
from repro.net import Network
from repro.net.builders import (
    build_overlap_topology,
    build_router_tree,
    build_switched_cluster,
)
from repro.protocols import deploy


def make_cluster(networks=2, hosts=5, seed=1, loss=0.0, config=None, **net_kwargs):
    topo, hosts_list = build_switched_cluster(networks, hosts)
    net = Network(topo, seed=seed, loss_rate=loss, **net_kwargs)
    nodes = deploy(HierarchicalNode, net, hosts_list, config=config)
    return net, hosts_list, nodes


class TestFormation:
    def test_full_views_two_networks(self):
        net, hosts, nodes = make_cluster(2, 5)
        net.run(until=12.0)
        for node in nodes.values():
            assert node.view() == sorted(hosts)

    def test_one_leader_per_level0_group(self):
        net, hosts, nodes = make_cluster(3, 6)
        net.run(until=12.0)
        for netidx in range(3):
            members = [h for h in hosts if f"-n{netidx}-" in h]
            leaders = [h for h in members if nodes[h].is_leader(0)]
            assert len(leaders) == 1
            # Bully: lowest ID in the group wins.
            assert leaders[0] == min(members)

    def test_level0_leaders_form_level1_group(self):
        net, hosts, nodes = make_cluster(3, 6)
        net.run(until=12.0)
        l0_leaders = [h for h in hosts if nodes[h].is_leader(0)]
        l1_members = [h for h in hosts if 1 in nodes[h].levels()]
        assert sorted(l1_members) == sorted(l0_leaders)
        l1_leaders = [h for h in hosts if nodes[h].is_leader(1)]
        assert l1_leaders == [min(l0_leaders)]

    def test_non_leaders_stay_at_level0(self):
        net, hosts, nodes = make_cluster(2, 5)
        net.run(until=12.0)
        for h in hosts:
            if not nodes[h].is_leader(0):
                assert nodes[h].levels() == [0]

    def test_single_network_collapses_to_one_group(self):
        net, hosts, nodes = make_cluster(1, 8)
        net.run(until=12.0)
        assert all(len(n.view()) == 8 for n in nodes.values())
        leaders = [h for h in hosts if nodes[h].is_leader(0)]
        assert leaders == [min(hosts)]

    def test_hundred_nodes_converge(self):
        net, hosts, nodes = make_cluster(5, 20)
        net.run(until=15.0)
        assert all(len(n.view()) == 100 for n in nodes.values())

    def test_formation_under_packet_loss(self):
        net, hosts, nodes = make_cluster(5, 20, seed=5, loss=0.02)
        net.run(until=15.0)
        assert all(len(n.view()) == 100 for n in nodes.values())

    def test_services_visible_everywhere(self):
        topo, hosts = build_switched_cluster(2, 4)
        net = Network(topo, seed=1)
        services = {hosts[0]: [ServiceSpec.make("index", "1-3")]}
        nodes = deploy(HierarchicalNode, net, hosts, services=services)
        net.run(until=12.0)
        for node in nodes.values():
            found = node.directory.lookup_service("index", "2")
            assert [r.node_id for r in found] == [hosts[0]]

    def test_deterministic_given_seed(self):
        def run():
            net, hosts, nodes = make_cluster(2, 5, seed=9)
            net.run(until=12.0)
            return {h: (n.levels(), n.view()) for h, n in nodes.items()}

        assert run() == run()


class TestDeepHierarchy:
    def test_router_tree_multi_level(self):
        topo, hosts = build_router_tree(depth=3, branching=2, hosts_per_leaf=3)
        net = Network(topo, seed=2)
        cfg = HierarchicalConfig(max_ttl=7)
        nodes = deploy(HierarchicalNode, net, hosts, config=cfg)
        net.run(until=40.0)
        assert all(len(n.view()) == 12 for n in nodes.values())
        # Exactly one node chains to the top level.
        tops = [h for h in hosts if nodes[h].top_level == cfg.max_level]
        assert len(tops) == 1

    def test_group_formation_stops_at_max_ttl(self):
        net, hosts, nodes = make_cluster(2, 4, config=HierarchicalConfig(max_ttl=2))
        net.run(until=12.0)
        assert all(max(n.levels()) <= 1 for n in nodes.values())
        assert all(len(n.view()) == 8 for n in nodes.values())


class TestOverlap:
    """The Fig. 4 non-transitive topology."""

    def test_views_converge_despite_overlap(self):
        topo, hosts = build_overlap_topology(hosts_per_group=2)
        net = Network(topo, seed=1)
        nodes = deploy(HierarchicalNode, net, hosts, config=HierarchicalConfig(max_ttl=4))
        net.run(until=25.0)
        assert all(len(n.view()) == 6 for n in nodes.values())

    def test_leader_sees_no_other_leader_invariant(self):
        topo, hosts = build_overlap_topology(hosts_per_group=2)
        net = Network(topo, seed=1)
        nodes = deploy(HierarchicalNode, net, hosts, config=HierarchicalConfig(max_ttl=4))
        net.run(until=25.0)
        assert InvariantChecker(net, nodes).check_hierarchy() == []

    def test_update_reaches_members_beyond_sender_ttl(self):
        # B's group leader cannot reach C's group directly at level 2; a
        # failure in B's group must still become visible in C's group.
        topo, hosts = build_overlap_topology(hosts_per_group=3)
        net = Network(topo, seed=1)
        nodes = deploy(HierarchicalNode, net, hosts, config=HierarchicalConfig(max_ttl=4))
        net.run(until=25.0)
        victim = "dc0-gB-h2"
        assert not nodes[victim].is_leader(0)
        nodes[victim].stop()
        net.crash_host(victim)
        net.run(until=60.0)
        for h, node in nodes.items():
            if h != victim:
                assert victim not in node.view(), f"{h} still sees {victim}"


class TestFailureDetection:
    def test_member_failure_detected_cluster_wide(self):
        net, hosts, nodes = make_cluster(5, 20)
        net.run(until=15.0)
        victim = hosts[25]
        assert not nodes[victim].is_leader(0)
        nodes[victim].stop()
        net.crash_host(victim)
        kill = net.now
        net.run(until=45.0)
        downs = [
            r for r in net.trace.records(kind="member_down") if r.data["target"] == victim
        ]
        assert {r.node for r in downs} == set(hosts) - {victim}
        cfg = HierarchicalConfig()
        detect = min(r.time for r in downs) - kill
        converge = max(r.time for r in downs) - kill
        assert cfg.fail_timeout <= detect <= cfg.fail_timeout + 2 * cfg.heartbeat_period
        # Convergence tracks detection closely (tree propagation is fast).
        assert converge - detect < 2 * cfg.heartbeat_period

    def test_no_false_positives_steady_state(self):
        net, hosts, nodes = make_cluster(3, 10)
        net.run(until=60.0)
        assert net.trace.records(kind="member_down") == []

    def test_no_false_positives_under_loss(self):
        net, hosts, nodes = make_cluster(3, 10, seed=11, loss=0.02)
        net.run(until=60.0)
        assert net.trace.records(kind="member_down") == []

    def test_views_exact_after_failure_with_loss(self):
        net, hosts, nodes = make_cluster(5, 20, seed=4, loss=0.02)
        net.run(until=15.0)
        victim = hosts[33]
        nodes[victim].stop()
        net.crash_host(victim)
        net.run(until=60.0)
        for h, node in nodes.items():
            if h != victim:
                assert node.view() == sorted(set(hosts) - {victim})

    def test_multiple_simultaneous_failures(self):
        net, hosts, nodes = make_cluster(4, 10)
        net.run(until=15.0)
        victims = [hosts[5], hosts[15], hosts[25]]
        for v in victims:
            nodes[v].stop()
            net.crash_host(v)
        net.run(until=60.0)
        expect = sorted(set(hosts) - set(victims))
        for h, node in nodes.items():
            if h not in victims:
                assert node.view() == expect


class TestLeaderFailover:
    def test_leader_death_backup_takes_over(self):
        net, hosts, nodes = make_cluster(3, 10)
        net.run(until=15.0)
        leader = nodes[hosts[10]].leader_of(0)
        backup = nodes[leader]._ctx.groups[0].my_backup
        nodes[leader].stop()
        net.crash_host(leader)
        net.run(until=60.0)
        # Some new leader exists in the group and the cluster view is exact.
        new_leader = nodes[hosts[11]].leader_of(0)
        assert new_leader is not None and new_leader != leader
        expect = sorted(set(hosts) - {leader})
        for h, node in nodes.items():
            if h != leader:
                assert node.view() == expect

    def test_leader_and_backup_both_die(self):
        net, hosts, nodes = make_cluster(3, 10, seed=6)
        net.run(until=15.0)
        leader = nodes[hosts[10]].leader_of(0)
        backup = nodes[leader]._ctx.groups[0].my_backup
        victims = {leader, backup}
        for v in victims:
            nodes[v].stop()
            net.crash_host(v)
        net.run(until=70.0)
        expect = sorted(set(hosts) - victims)
        for h, node in nodes.items():
            if h not in victims:
                assert node.view() == expect
        # A fresh election picked a leader in the affected group.
        survivors = [h for h in hosts if "-n1-" in h and h not in victims]
        assert nodes[survivors[0]].leader_of(0) in survivors

    def test_root_leader_death(self):
        net, hosts, nodes = make_cluster(3, 10, seed=2)
        net.run(until=15.0)
        root = next(h for h in hosts if nodes[h].is_leader(1))
        nodes[root].stop()
        net.crash_host(root)
        net.run(until=80.0)
        expect = sorted(set(hosts) - {root})
        for h, node in nodes.items():
            if h != root:
                assert node.view() == expect
        new_root = [h for h in hosts if h != root and nodes[h].is_leader(1)]
        assert len(new_root) == 1


class TestPartition:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_switch_failure_isolates_and_heals(self, seed):
        net, hosts, nodes = make_cluster(3, 10, seed=seed)
        net.run(until=15.0)
        net.fail_device("dc0-sw2")
        net.run(until=45.0)
        for h, node in nodes.items():
            if "-n2-" in h:
                assert node.view() == [h]  # fully isolated behind dead switch
            else:
                assert len(node.view()) == 20
                assert not any("-n2-" in v for v in node.view())
        net.recover_device("dc0-sw2")
        net.run(until=110.0)
        for node in nodes.values():
            assert node.view() == sorted(hosts)

    def test_restarted_node_rejoins_with_higher_incarnation(self):
        net, hosts, nodes = make_cluster(2, 5)
        net.run(until=12.0)
        victim = hosts[3]
        nodes[victim].stop()
        net.crash_host(victim)
        net.run(until=30.0)
        net.recover_host(victim)
        nodes[victim].start()
        net.run(until=60.0)
        for node in nodes.values():
            assert node.view() == sorted(hosts)
        observer = nodes[hosts[0]]
        assert observer.directory.get(victim).incarnation == 2


class TestDynamicValues:
    def test_update_value_propagates(self):
        net, hosts, nodes = make_cluster(2, 4)
        net.run(until=12.0)
        nodes[hosts[0]].update_value("Port", "8080")
        net.run(until=13.0)
        far = nodes[hosts[7]]  # other network
        assert far.directory.get(hosts[0]).attrs["Port"] == "8080"

    def test_register_service_at_runtime(self):
        net, hosts, nodes = make_cluster(2, 4)
        net.run(until=12.0)
        nodes[hosts[2]].register_service(ServiceSpec.make("cache", "0-1"))
        net.run(until=13.0)
        for node in nodes.values():
            assert [r.node_id for r in node.directory.lookup_service("cache")] == [hosts[2]]

    def test_delete_value_propagates(self):
        net, hosts, nodes = make_cluster(2, 4)
        net.run(until=12.0)
        nodes[hosts[0]].update_value("k", "v")
        net.run(until=13.0)
        nodes[hosts[0]].delete_value("k")
        net.run(until=14.0)
        assert "k" not in nodes[hosts[7]].directory.get(hosts[0]).attrs


class TestTraffic:
    def test_aggregate_bandwidth_linear_not_quadratic(self):
        def agg(networks):
            net, hosts, nodes = make_cluster(networks, 20)
            net.run(until=20.0)
            net.meter.reset()
            net.run(until=30.0)
            return net.meter.bytes(direction="rx")

        b2, b4 = agg(2), agg(4)
        # Doubling node count should ~double traffic (constant per node),
        # far from the 4x of a quadratic scheme.
        assert 1.6 < b4 / b2 < 2.6

    def test_per_node_bandwidth_constant_in_cluster_size(self):
        def per_node(networks):
            net, hosts, nodes = make_cluster(networks, 20)
            net.run(until=20.0)
            net.meter.reset()
            net.run(until=30.0)
            member = hosts[1]  # plain member, not a leader
            return net.meter.bytes(member, "rx")

        small, large = per_node(2), per_node(5)
        assert large / small < 1.3


class TestQuietCluster:
    def test_converged_cluster_builds_no_updates(self, monkeypatch):
        """Once formed, the 5 x 20 testbed's wire carries heartbeats only.

        Formation's last update goes out by t = 5.3 (seed 31).  After
        that the root climbs alone into levels 2 and 3; those wins move
        nobody's attribution, so they re-announce nothing, and nothing
        else changes.  Count gate: zero ``UpdateManager.build`` calls in
        t in [6, 30].
        """
        from repro.core.updates import UpdateManager
        from repro.metrics.experiment import make_scheme_cluster

        builds = []
        build = UpdateManager.build

        def counted(self, level, ops, now, *args, **kwargs):
            builds.append(now)
            return build(self, level, ops, now, *args, **kwargs)

        monkeypatch.setattr(UpdateManager, "build", counted)
        net, hosts, nodes = make_scheme_cluster("hierarchical", 5, 20, seed=31)
        net.run(until=30.0)
        assert builds and max(builds) < 6.0
        assert [t for t in builds if 6.0 <= t <= 30.0] == []
        for node in nodes.values():
            assert len(node.view()) == len(hosts)
        # The root did climb: it leads every level, alone at the top.
        root = nodes[hosts[0]]
        assert root.levels() == [0, 1, 2, 3]
        assert all(root.is_leader(level) for level in root.levels())
        assert root.group_members(2) == root.group_members(3) == []


class TestRefutationPingPong:
    def test_churn_imports_few_buried_records(self, monkeypatch):
        """A leader defends only a member it still hears.

        The ledger's churn schedule on the 5 x 20 testbed at 2 % loss
        (seed 13, 60 crash/recover pairs of ordinary nodes, 4 s apart,
        each victim back 14 s later).  When a leader refuted every
        removal of a member still in its group, a leader whose detector
        lagged its members' by one tracker tick answered their removals
        with fresh adds, and each member refused the add against its
        death certificate and pushed the removal out again: 12,068
        buried records offered for import.  Refuting only for a member
        heard within two heartbeat periods leaves 54.  Count gate: at
        most 500 ``Informer.tombstoned`` hits, and every view complete.
        """
        import random

        from repro.cluster.failures import FailureSchedule
        from repro.core.roles.informer import Informer
        from repro.metrics.experiment import make_scheme_cluster

        hits = []
        tombstoned = Informer.tombstoned

        def counted(self, node_id, incarnation, now):
            buried = tombstoned(self, node_id, incarnation, now)
            if buried:
                hits.append(node_id)
            return buried

        monkeypatch.setattr(Informer, "tombstoned", counted)
        seed, kills = 13, 60
        net, hosts, nodes = make_scheme_cluster("hierarchical", 5, 20, seed=seed, loss_rate=0.02)
        net.run(until=25.0)
        rng = random.Random(seed)
        ordinary = [h for h in hosts if not nodes[h].is_leader(0)]
        rng.shuffle(ordinary)
        schedule = FailureSchedule(net)
        for i in range(kills):
            down = 30.0 + 4.0 * i + rng.uniform(0.05, 0.25)
            victim = ordinary[i % len(ordinary)]
            schedule.register_stack(victim, nodes[victim])
            schedule.crash_node_at(down, victim)
            schedule.recover_node_at(down + 14.0, victim)
        net.run(until=30.0 + 4.0 * kills + 14.0 + 12.0)
        assert len(hits) <= 500
        everyone = set(hosts)
        assert all(set(node.view()) == everyone for node in nodes.values())
