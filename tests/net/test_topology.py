"""Unit tests for the topology graph and TTL-distance semantics."""

import pytest

from repro.net import NodeKind, Topology, UNREACHABLE
from repro.net.builders import (
    build_overlap_topology,
    build_router_tree,
    build_switched_cluster,
    build_two_datacenters,
)


def simple_two_segment():
    """Two L2 segments joined by one router."""
    t = Topology()
    t.add_router("r")
    for seg in ("a", "b"):
        t.add_switch(f"s{seg}")
        t.add_link(f"s{seg}", "r", latency=0.0002)
        for i in range(2):
            t.add_host(f"{seg}{i}")
            t.add_link(f"{seg}{i}", f"s{seg}", latency=0.0001)
    return t


class TestBasics:
    def test_duplicate_device_rejected(self):
        t = Topology()
        t.add_host("h")
        with pytest.raises(ValueError):
            t.add_switch("h")

    def test_link_unknown_device_rejected(self):
        t = Topology()
        t.add_host("h")
        with pytest.raises(ValueError):
            t.add_link("h", "ghost")

    def test_self_link_rejected(self):
        t = Topology()
        t.add_host("h")
        with pytest.raises(ValueError):
            t.add_link("h", "h")

    def test_kind_and_dc(self):
        t = Topology()
        t.add_host("h", dc="west")
        assert t.kind("h") is NodeKind.HOST
        assert t.dc("h") == "west"

    def test_hosts_filter_by_dc(self):
        t = Topology()
        t.add_host("h1", dc="a")
        t.add_host("h2", dc="b")
        t.add_switch("s", dc="a")
        assert t.hosts() == ["h1", "h2"]
        assert t.hosts(dc="a") == ["h1"]

    def test_datacenters(self):
        t = Topology()
        t.add_host("h1", dc="b")
        t.add_host("h2", dc="a")
        assert t.datacenters() == ["a", "b"]

    def test_version_bumps_on_mutation(self):
        t = Topology()
        v0 = t.version
        t.add_host("h")
        assert t.version > v0


class TestRouteVersion:
    """``version`` moves on every mutation; ``route_version`` on all but one kind.

    A simple-leaf host (one link, to a switch or router) carries no path
    between other hosts, so its up/down flip leaves ``route_version``
    alone; every other mutation can move a route and moves both.
    """

    @staticmethod
    def moved(t, mutate):
        before = (t.version, t.route_version)
        mutate()
        return (t.version != before[0], t.route_version != before[1])

    def test_leaf_host_flip_moves_version_only(self):
        t = simple_two_segment()
        assert self.moved(t, lambda: t.set_up("a0", False)) == (True, False)
        assert self.moved(t, lambda: t.set_up("a0", True)) == (True, False)

    def test_no_op_flip_moves_nothing(self):
        t = simple_two_segment()
        assert self.moved(t, lambda: t.set_up("a0", True)) == (False, False)

    def test_switch_router_and_non_leaf_host_flips_move_both(self):
        t = simple_two_segment()
        t.add_link("a1", "sb")  # a1 is multi-homed: not a leaf any more
        for device in ("sa", "r", "a1"):
            assert self.moved(t, lambda: t.set_up(device, False)) == (True, True), device
            assert self.moved(t, lambda: t.set_up(device, True)) == (True, True), device

    def test_host_to_host_link_makes_both_ends_non_leaf(self):
        t = simple_two_segment()
        t.add_link("a0", "b0")
        assert self.moved(t, lambda: t.set_up("a0", False)) == (True, True)
        assert self.moved(t, lambda: t.set_up("b1", False)) == (True, False)

    def test_link_add_and_remove_move_both(self):
        t = simple_two_segment()
        assert self.moved(t, lambda: t.add_link("sa", "sb")) == (True, True)
        assert self.moved(t, lambda: t.remove_link("sa", "sb")) == (True, True)

    def test_leaf_flip_is_seen_by_the_pair_queries(self):
        t = simple_two_segment()
        up = (t.mc_route("b0", "a0"), t.unicast_latency("b0", "a0"))
        assert up[0][0] == 2.0
        t.set_up("b0", False)
        assert t.mc_route("a0", "b0") == (UNREACHABLE, UNREACHABLE)
        assert t.mc_route("b0", "a0") == (UNREACHABLE, UNREACHABLE)
        assert t.unicast_latency("b0", "a0") == UNREACHABLE
        t.set_up("b0", True)
        assert (t.mc_route("b0", "a0"), t.unicast_latency("b0", "a0")) == up

    def test_watchers_hear_leaf_flips_only(self):
        t = simple_two_segment()
        t.add_link("a1", "sb")

        class Watcher:
            def __init__(self):
                self.heard = []

            def flipped(self, host):
                self.heard.append((host, t.is_up(host)))

        w = Watcher()
        t.watch_leaf_hosts(w.flipped)
        for device in ("a0", "a1", "sa", "r", "a0"):
            t.set_up(device, not t.is_up(device))
        assert w.heard == [("a0", False), ("a0", True)]

    def test_a_dead_watcher_drops_out(self):
        t = simple_two_segment()

        class Watcher:
            def flipped(self, host):
                raise AssertionError("a collected watcher was called")

        t.watch_leaf_hosts(Watcher().flipped)
        t.set_up("a0", False)
        assert t._leaf_watchers == []


class TestTtlDistance:
    def test_same_segment_is_one(self):
        t = simple_two_segment()
        assert t.ttl_distance("a0", "a1") == 1

    def test_across_one_router_is_two(self):
        t = simple_two_segment()
        assert t.ttl_distance("a0", "b0") == 2

    def test_self_distance_zero(self):
        t = simple_two_segment()
        assert t.ttl_distance("a0", "a0") == 0

    def test_symmetry(self):
        t = simple_two_segment()
        assert t.ttl_distance("a0", "b1") == t.ttl_distance("b1", "a0")

    def test_switches_do_not_decrement_ttl(self):
        # host - sw1 - sw2 - host chain: still TTL 1.
        t = Topology()
        t.add_switch("s1")
        t.add_switch("s2")
        t.add_link("s1", "s2")
        t.add_host("h1")
        t.add_host("h2")
        t.add_link("h1", "s1")
        t.add_link("h2", "s2")
        assert t.ttl_distance("h1", "h2") == 1

    def test_latency_sums_along_path(self):
        t = simple_two_segment()
        assert t.latency("a0", "b0") == pytest.approx(0.0001 + 0.0002 + 0.0002 + 0.0001)

    def test_hosts_within_ttl(self):
        t = simple_two_segment()
        assert sorted(t.hosts_within("a0", 1)) == ["a1"]
        assert sorted(t.hosts_within("a0", 2)) == ["a1", "b0", "b1"]

    def test_unreachable_without_path(self):
        t = Topology()
        t.add_host("h1")
        t.add_host("h2")
        assert t.ttl_distance("h1", "h2") == UNREACHABLE

    def test_max_ttl_diameter(self):
        t = simple_two_segment()
        assert t.max_ttl_diameter() == 2


class TestFailures:
    def test_downed_router_partitions(self):
        t = simple_two_segment()
        t.set_up("r", False)
        assert t.ttl_distance("a0", "b0") == UNREACHABLE
        assert t.ttl_distance("a0", "a1") == 1  # local segment unaffected

    def test_downed_switch_isolates_segment(self):
        t = simple_two_segment()
        t.set_up("sa", False)
        assert t.ttl_distance("a0", "a1") == UNREACHABLE
        assert t.ttl_distance("b0", "b1") == 1

    def test_downed_host_unreachable_both_ways(self):
        t = simple_two_segment()
        t.set_up("a0", False)
        assert t.ttl_distance("a1", "a0") == UNREACHABLE
        assert t.ttl_distance("a0", "a1") == UNREACHABLE

    def test_recovery_restores_distance(self):
        t = simple_two_segment()
        t.set_up("r", False)
        t.set_up("r", True)
        assert t.ttl_distance("a0", "b0") == 2

    def test_unknown_device_set_up_raises(self):
        t = Topology()
        with pytest.raises(ValueError):
            t.set_up("ghost", True)

    def test_remove_link(self):
        t = simple_two_segment()
        t.remove_link("sa", "r")
        assert t.ttl_distance("a0", "b0") == UNREACHABLE


class TestBuilders:
    def test_switched_cluster_shape(self):
        t, hosts = build_switched_cluster(5, 20)
        assert len(hosts) == 100
        assert t.ttl_distance(hosts[0], hosts[1]) == 1
        assert t.ttl_distance(hosts[0], hosts[20]) == 2
        assert t.max_ttl_diameter() == 2

    def test_switched_cluster_single_network_has_no_router(self):
        t, hosts = build_switched_cluster(1, 4)
        assert len(hosts) == 4
        assert t.devices(NodeKind.ROUTER) == []
        assert t.max_ttl_diameter() == 1

    def test_switched_cluster_invalid_args(self):
        with pytest.raises(ValueError):
            build_switched_cluster(0, 5)

    def test_router_tree_distances(self):
        t, hosts = build_router_tree(depth=3, branching=2, hosts_per_leaf=2)
        assert len(hosts) == 8  # 4 leaves x 2
        # Same leaf: TTL 1.
        assert t.ttl_distance(hosts[0], hosts[1]) == 1
        # Sibling leaves share a depth-2 router: leaf_i + parent + leaf_j = 3 routers.
        assert t.ttl_distance(hosts[0], hosts[2]) == 4
        # Opposite sides of the root cross 5 routers.
        assert t.ttl_distance(hosts[0], hosts[-1]) == 6

    def test_overlap_topology_matches_fig4(self):
        t, hosts = build_overlap_topology(hosts_per_group=2)
        a, b, c = "dc0-gA-h0", "dc0-gB-h0", "dc0-gC-h0"
        assert t.ttl_distance(a, b) == 3
        assert t.ttl_distance(a, c) == 3
        assert t.ttl_distance(b, c) == 4  # non-transitive!
        assert len(hosts) == 6

    def test_two_datacenters_multicast_isolation(self):
        t, dca, dcb = build_two_datacenters(2, 3)
        assert len(dca) == 6 and len(dcb) == 6
        # Multicast (TTL) distance never crosses the WAN.
        assert t.ttl_distance(dca[0], dcb[0]) == UNREACHABLE
        # Unicast does, and pays the WAN latency.
        lat = t.unicast_latency(dca[0], dcb[0])
        assert lat != UNREACHABLE
        assert lat >= 0.045

    def test_two_datacenters_intra_dc_unaffected(self):
        t, dca, _ = build_two_datacenters(2, 3)
        assert t.ttl_distance(dca[0], dca[1]) == 1
        assert t.ttl_distance(dca[0], dca[3]) == 2

    def test_unicast_latency_self_is_zero(self):
        t, hosts = build_switched_cluster(1, 2)
        assert t.unicast_latency(hosts[0], hosts[0]) == 0.0

    def test_reachable(self):
        t, dca, dcb = build_two_datacenters(1, 2)
        assert t.reachable(dca[0], dcb[0])
        t.set_up(f"dcA-border", False)
        assert not t.reachable(dca[0], dcb[0])
        assert t.reachable(dca[0], dca[1])
