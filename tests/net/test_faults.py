"""Unit and integration tests for the chaos fault-injection plans."""

import random

import pytest

from repro.net import FaultPlan, LinkFault, Network
from repro.net.builders import build_switched_cluster


def make_net(networks=1, hosts=3, **kwargs):
    topo, hosts_list = build_switched_cluster(networks, hosts)
    return Network(topo, **kwargs), hosts_list


class Collector:
    def __init__(self, net):
        self.net = net
        self.received = []

    def __call__(self, packet):
        self.received.append((self.net.now, packet))


class TestLinkFault:
    def test_probability_bounds_validated(self):
        for field in ("loss", "reorder", "duplicate"):
            with pytest.raises(ValueError):
                LinkFault(**{field: 1.5})
            with pytest.raises(ValueError):
                LinkFault(**{field: -0.1})

    def test_negative_delays_rejected(self):
        for field in ("jitter", "reorder_window", "dup_lag"):
            with pytest.raises(ValueError):
                LinkFault(**{field: -1.0})

    def test_reorder_requires_window(self):
        with pytest.raises(ValueError):
            LinkFault(reorder=0.5)
        LinkFault(reorder=0.5, reorder_window=0.1)  # fine

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            LinkFault(start=5.0, until=5.0)

    def test_matching_is_directional(self):
        rule = LinkFault(src="a", dst="b", loss=1.0)
        assert rule.matches("a", "b", 0.0)
        assert not rule.matches("b", "a", 0.0)

    def test_wildcard_and_collection_sides(self):
        any_to_b = LinkFault(dst="b")
        assert any_to_b.matches("x", "b", 0.0)
        assert not any_to_b.matches("x", "c", 0.0)
        multi = LinkFault(src=["a", "b"], dst=["c", "d"])
        assert multi.matches("b", "c", 0.0)
        assert not multi.matches("c", "a", 0.0)

    def test_time_window_is_half_open(self):
        rule = LinkFault(src="a", dst="b", start=10.0, until=20.0)
        assert not rule.matches("a", "b", 9.99)
        assert rule.matches("a", "b", 10.0)
        assert rule.matches("a", "b", 19.99)
        assert not rule.matches("a", "b", 20.0)


class TestFaultPlanCore:
    def test_no_match_returns_none_and_consumes_no_rng(self):
        rng = random.Random(1)
        before = rng.getstate()
        plan = FaultPlan(rng)
        plan.add(src="a", dst="b", loss=0.5)
        assert plan.offsets("x", "y", 0.0) is None
        assert rng.getstate() == before

    def test_total_loss_drops(self):
        plan = FaultPlan(random.Random(1))
        plan.add(src="a", dst="b", loss=1.0)
        assert plan.offsets("a", "b", 0.0) == ()
        assert plan.stats["drops"] == 1

    def test_no_fault_effects_yield_zero_offset(self):
        plan = FaultPlan(random.Random(1))
        plan.add(src="a", dst="b")  # matching rule, no effects
        assert plan.offsets("a", "b", 0.0) == (0.0,)

    def test_jitter_bounded(self):
        plan = FaultPlan(random.Random(2))
        plan.add(src="a", dst="b", jitter=0.5)
        for _ in range(200):
            (off,) = plan.offsets("a", "b", 0.0)
            assert 0.0 <= off < 0.5

    def test_duplicate_offsets_trail_primary(self):
        plan = FaultPlan(random.Random(3))
        plan.add(src="a", dst="b", duplicate=1.0, dup_lag=0.2)
        offsets = plan.offsets("a", "b", 0.0)
        assert len(offsets) == 2
        primary, dup = offsets
        assert 0.0 <= dup - primary < 0.2
        assert plan.stats["duplicates"] == 1

    def test_offsets_without_rng_raises(self):
        plan = FaultPlan()
        plan.add(src="a", dst="b", loss=0.5)
        with pytest.raises(RuntimeError, match="RNG"):
            plan.offsets("a", "b", 0.0)

    def test_rules_compose_in_insertion_order(self):
        plan = FaultPlan(random.Random(4))
        plan.add(src="a", loss=1.0)  # any receiver
        plan.add(src="a", dst="b", jitter=0.1)
        # First rule drops before the second ever draws.
        assert plan.offsets("a", "b", 0.0) == ()

    def test_seeded_draws_reproducible(self):
        def draw(seed):
            plan = FaultPlan(random.Random(seed))
            plan.add(src="a", dst="b", loss=0.3, jitter=0.2,
                     reorder=0.3, reorder_window=0.5, duplicate=0.2, dup_lag=0.1)
            return [plan.offsets("a", "b", 0.0) for _ in range(100)]

        assert draw(11) == draw(11)
        assert draw(11) != draw(12)

    def test_partition_rejects_overlapping_sides(self):
        plan = FaultPlan(random.Random(0))
        with pytest.raises(ValueError, match="overlap"):
            plan.partition(["a", "b"], ["b", "c"])

    def test_partition_symmetric_and_asymmetric(self):
        plan = FaultPlan(random.Random(0))
        sym = plan.partition(["a"], ["b"], start=0.0, until=10.0)
        assert len(sym) == 2
        plan.clear()
        asym = plan.partition(["a"], ["b"], start=0.0, until=10.0, symmetric=False)
        assert len(asym) == 1
        assert plan.offsets("a", "b", 5.0) == ()
        assert plan.offsets("b", "a", 5.0) is None

    def test_severed_checks_both_directions(self):
        plan = FaultPlan(random.Random(0))
        plan.partition(["a"], ["b"], start=0.0, until=10.0, symmetric=False)
        assert plan.severed("a", "b", 5.0)
        assert plan.severed("b", "a", 5.0)  # either direction counts
        assert not plan.severed("a", "b", 15.0)  # window lapsed
        assert not plan.severed("a", "c", 5.0)

    def test_remove_heals_early(self):
        plan = FaultPlan(random.Random(0))
        (rule,) = plan.partition(["a"], ["b"], symmetric=False)
        assert plan.remove(rule)
        assert plan.offsets("a", "b", 0.0) is None
        assert not plan.remove(rule)  # already gone


class TestNetworkIntegration:
    def test_set_fault_plan_binds_chaos_stream(self):
        net, _hosts = make_net()
        plan = net.set_fault_plan(FaultPlan())
        assert plan.rng is not None
        assert net.multicast_fabric.fault_plan is plan
        assert net.transport.fault_plan is plan

    def test_ensure_fault_plan_is_idempotent(self):
        net, _hosts = make_net()
        plan = net.ensure_fault_plan()
        assert net.ensure_fault_plan() is plan

    def test_clearing_plan_removes_chaos(self):
        net, _hosts = make_net()
        net.ensure_fault_plan()
        net.set_fault_plan(None)
        assert net.multicast_fabric.fault_plan is None
        assert net.transport.fault_plan is None

    def test_unicast_directional_total_loss(self):
        net, hosts = make_net()
        a, b = hosts[0], hosts[1]
        net.ensure_fault_plan().add(src=a, dst=b, loss=1.0)
        sink_b, sink_a = Collector(net), Collector(net)
        net.bind(b, "membership", sink_b)
        net.bind(a, "membership", sink_a)
        net.unicast(a, b, kind="x", payload=None, size=1)
        net.unicast(b, a, kind="x", payload=None, size=1)
        net.run()
        assert sink_b.received == []  # severed direction
        assert len(sink_a.received) == 1  # reverse flows

    def test_multicast_directional_total_loss_fast_and_slow(self):
        net, hosts = make_net(1, 3)
        net.ensure_fault_plan().add(src=hosts[0], dst=hosts[1], loss=1.0)
        sinks = {h: Collector(net) for h in hosts[1:]}
        for h, s in sinks.items():
            net.subscribe("ch", h, s)
        net.multicast(hosts[0], "ch", ttl=1, kind="hb", payload=None, size=1)
        net.run()
        assert sinks[hosts[1]].received == []
        assert len(sinks[hosts[2]].received) == 1

    def test_duplication_delivers_twice(self):
        net, hosts = make_net()
        net.ensure_fault_plan().add(
            src=hosts[0], dst=hosts[1], duplicate=1.0, dup_lag=0.01
        )
        sink = Collector(net)
        net.bind(hosts[1], "membership", sink)
        net.unicast(hosts[0], hosts[1], kind="x", payload="p", size=1)
        net.run()
        assert len(sink.received) == 2
        assert sink.received[0][1].payload == sink.received[1][1].payload
        assert sink.received[0][0] <= sink.received[1][0]

    def test_reordering_can_invert_send_order(self):
        # Packet 1 is held back (reorder), packet 2 sent a hair later
        # overtakes it.
        net, hosts = make_net()
        plan = net.ensure_fault_plan()
        plan.add(src=hosts[0], dst=hosts[1], reorder=1.0, reorder_window=0.5,
                 until=0.0005)  # only the first send is held back
        sink = Collector(net)
        net.bind(hosts[1], "membership", sink)
        net.unicast(hosts[0], hosts[1], kind="x", payload=1, size=1)
        net.sim.call_after(0.001, lambda: net.unicast(
            hosts[0], hosts[1], kind="x", payload=2, size=1))
        net.run()
        assert [p.payload for _t, p in sink.received] == [2, 1]

    def test_chaos_stream_does_not_perturb_base_loss(self):
        # Same seed, same sends: the base-loss survivor pattern must be
        # identical with and without an active fault plan, because chaos
        # draws come from a dedicated stream, never from net.loss.
        def survivors(with_chaos):
            net, hosts = make_net(1, 3, loss_rate=0.5, seed=9)
            if with_chaos:
                net.ensure_fault_plan().add(
                    src=hosts[0], dst=hosts[2], jitter=0.001
                )
            sink = Collector(net)
            net.subscribe("ch", hosts[1], sink)
            net.subscribe("ch", hosts[2], Collector(net))
            for _ in range(100):
                net.multicast(hosts[0], "ch", ttl=1, kind="hb", payload=None, size=1)
            net.run()
            return [t for t, _p in sink.received]

        assert survivors(False) == survivors(True)

    def test_fault_stats_accumulate(self):
        net, hosts = make_net()
        plan = net.ensure_fault_plan()
        plan.add(src=hosts[0], dst=hosts[1], loss=1.0)
        net.bind(hosts[1], "membership", Collector(net))
        for _ in range(5):
            net.unicast(hosts[0], hosts[1], kind="x", payload=None, size=1)
        net.run()
        assert plan.stats["consults"] == 5
        assert plan.stats["drops"] == 5
