"""Delivery-plan cache upkeep under churn.

The multicast fabric caches per-(channel, src, ttl) recipient plans.  A
route change (``Topology.route_version``: a switch, router, link or
multi-homed host) drops them all; every other mutation that can change
who hears a send — subscribe, unsubscribe, crash-driven
unsubscribe_all, handler replacement, a leaf host going down or up — is
patched into the affected channel's plans, and in-flight packets must
respect state changes that land before delivery.  The randomized
version of these cases is ``test_plan_patching.py``.
"""

import pytest

from repro.net import Network
from repro.net.builders import build_switched_cluster


def make_net(networks=2, hosts=3, **kwargs):
    topo, hosts_list = build_switched_cluster(networks, hosts)
    return Network(topo, **kwargs), hosts_list


class Collector:
    def __init__(self, net):
        self.net = net
        self.received = []

    def __call__(self, packet):
        self.received.append((self.net.now, packet))


class TestPlanReuse:
    def test_repeat_sends_reuse_cached_plan(self):
        net, hosts = make_net(1, 3)
        sink = Collector(net)
        net.subscribe("ch", hosts[1], sink)
        for _ in range(5):
            net.multicast(hosts[0], "ch", ttl=1, kind="hb", payload=None, size=1)
        net.run()
        fabric = net.multicast_fabric
        assert len(sink.received) == 5
        assert ("ch", hosts[0], 1) in fabric._plans

    def test_plans_distinct_per_ttl_and_src(self):
        net, hosts = make_net(2, 2)
        for h in hosts:
            net.subscribe("ch", h, Collector(net))
        assert net.multicast(hosts[0], "ch", ttl=1, kind="x", payload=None, size=1) == 1
        assert net.multicast(hosts[0], "ch", ttl=2, kind="x", payload=None, size=1) == 3
        assert net.multicast(hosts[2], "ch", ttl=1, kind="x", payload=None, size=1) == 1
        assert len(net.multicast_fabric._plans) == 3


class TestSubscriptionChurn:
    def test_new_subscriber_after_cached_send_receives(self):
        net, hosts = make_net(1, 3)
        s1, s2 = Collector(net), Collector(net)
        net.subscribe("ch", hosts[1], s1)
        net.multicast(hosts[0], "ch", ttl=1, kind="x", payload=None, size=1)
        net.run()
        net.subscribe("ch", hosts[2], s2)  # must invalidate the cached plan
        net.multicast(hosts[0], "ch", ttl=1, kind="x", payload=None, size=1)
        net.run()
        assert len(s1.received) == 2
        assert len(s2.received) == 1

    def test_unsubscribe_after_cached_send_stops_delivery(self):
        net, hosts = make_net(1, 3)
        sink = Collector(net)
        net.subscribe("ch", hosts[1], sink)
        net.multicast(hosts[0], "ch", ttl=1, kind="x", payload=None, size=1)
        net.run()
        net.unsubscribe("ch", hosts[1])
        n = net.multicast(hosts[0], "ch", ttl=1, kind="x", payload=None, size=1)
        net.run()
        assert n == 0
        assert len(sink.received) == 1

    def test_unsubscribe_mid_flight_drops_inflight_packet(self):
        net, hosts = make_net(1, 2)
        sink = Collector(net)
        net.subscribe("ch", hosts[1], sink)
        net.multicast(hosts[0], "ch", ttl=1, kind="x", payload=None, size=1)
        net.unsubscribe("ch", hosts[1])  # while the packet is in the air
        net.run()
        assert sink.received == []

    def test_subscribe_mid_flight_does_not_receive_earlier_send(self):
        net, hosts = make_net(1, 3)
        s1, s2 = Collector(net), Collector(net)
        net.subscribe("ch", hosts[1], s1)
        net.multicast(hosts[0], "ch", ttl=1, kind="x", payload=None, size=1)
        net.subscribe("ch", hosts[2], s2)  # too late for the in-flight packet
        net.run()
        assert len(s1.received) == 1
        assert s2.received == []

    def test_handler_replacement_invalidates_plan(self):
        net, hosts = make_net(1, 2)
        old, new = Collector(net), Collector(net)
        net.subscribe("ch", hosts[1], old)
        net.multicast(hosts[0], "ch", ttl=1, kind="x", payload=None, size=1)
        net.run()
        net.subscribe("ch", hosts[1], new)  # replace handler in place
        net.multicast(hosts[0], "ch", ttl=1, kind="x", payload=None, size=1)
        net.run()
        assert len(old.received) == 1
        assert len(new.received) == 1

    def test_handler_replacement_mid_flight_drops_inflight_packet(self):
        # Handler identity is checked at delivery: a packet sent to handler
        # A is not delivered to replacement handler B at the same host.
        net, hosts = make_net(1, 2)
        old, new = Collector(net), Collector(net)
        net.subscribe("ch", hosts[1], old)
        net.multicast(hosts[0], "ch", ttl=1, kind="x", payload=None, size=1)
        net.subscribe("ch", hosts[1], new)
        net.run()
        assert old.received == []
        assert new.received == []

    def test_crash_unsubscribe_all_invalidates_every_channel(self):
        net, hosts = make_net(1, 3)
        s_a, s_b = Collector(net), Collector(net)
        net.subscribe("chA", hosts[1], s_a)
        net.subscribe("chB", hosts[1], s_b)
        net.multicast(hosts[0], "chA", ttl=1, kind="x", payload=None, size=1)
        net.multicast(hosts[0], "chB", ttl=1, kind="x", payload=None, size=1)
        net.run()
        net.crash_host(hosts[1])
        assert net.multicast(hosts[0], "chA", ttl=1, kind="x", payload=None, size=1) == 0
        assert net.multicast(hosts[0], "chB", ttl=1, kind="x", payload=None, size=1) == 0
        net.run()
        assert len(s_a.received) == 1 and len(s_b.received) == 1


class TestTopologyChurn:
    def test_switch_down_partitions_cached_plan(self):
        net, hosts = make_net(2, 3)
        sinks = {h: Collector(net) for h in hosts}
        for h, s in sinks.items():
            net.subscribe("ch", h, s)
        assert net.multicast(hosts[0], "ch", ttl=2, kind="x", payload=None, size=1) == 5
        net.run()
        # Down the second network's switch: its segment drops off the plan.
        net.fail_device("dc0-sw1")
        n = net.multicast(hosts[0], "ch", ttl=2, kind="x", payload=None, size=1)
        net.run()
        assert n == 2  # only the sender's segment peers remain reachable
        for h in hosts[3:]:
            assert len(sinks[h].received) == 1  # nothing after the partition

    def test_switch_recovery_restores_plan(self):
        net, hosts = make_net(2, 2)
        sinks = {h: Collector(net) for h in hosts}
        for h, s in sinks.items():
            net.subscribe("ch", h, s)
        net.fail_device("dc0-sw1")
        assert net.multicast(hosts[0], "ch", ttl=2, kind="x", payload=None, size=1) == 1
        net.recover_device("dc0-sw1")
        assert net.multicast(hosts[0], "ch", ttl=2, kind="x", payload=None, size=1) == 3
        net.run()
        assert len(sinks[hosts[2]].received) == 1

    def test_host_down_then_up_rejoins_plans(self):
        net, hosts = make_net(1, 3)
        sink = Collector(net)
        net.subscribe("ch", hosts[1], sink)
        net.topo.set_up(hosts[1], False)
        assert net.multicast(hosts[0], "ch", ttl=1, kind="x", payload=None, size=1) == 0
        net.topo.set_up(hosts[1], True)
        assert net.multicast(hosts[0], "ch", ttl=1, kind="x", payload=None, size=1) == 1
        net.run()
        assert len(sink.received) == 1

    def test_receiver_down_at_delivery_time_is_skipped(self):
        net, hosts = make_net(1, 3)
        s1, s2 = Collector(net), Collector(net)
        net.subscribe("ch", hosts[1], s1)
        net.subscribe("ch", hosts[2], s2)
        net.multicast(hosts[0], "ch", ttl=1, kind="x", payload=None, size=1)
        # Both receivers share one delay bucket; downing one mid-flight must
        # not disturb the other's delivery.
        net.topo.set_up(hosts[1], False)
        net.run()
        assert s1.received == []
        assert len(s2.received) == 1


class TestPatching:
    def send_from_everyone(self, net, hosts, ttl=1):
        return [
            net.multicast(h, "ch", ttl=ttl, kind="x", payload=None, size=1) for h in hosts
        ]

    def test_each_new_subscriber_is_added_once(self):
        net, hosts = make_net(1, 4)
        fabric = net.multicast_fabric
        for h in hosts[1:]:
            net.subscribe("ch", h, Collector(net))
            net.multicast(hosts[0], "ch", ttl=1, kind="x", payload=None, size=1)
        recipients, _ = fabric._plan("ch", hosts[0], 1)
        assert [r[0] for r in recipients] == hosts[1:]

    def test_rejoin_moves_the_host_to_the_end(self):
        net, hosts = make_net(1, 4)
        for h in hosts:
            net.subscribe("ch", h, Collector(net))
        net.multicast(hosts[0], "ch", ttl=1, kind="x", payload=None, size=1)
        net.unsubscribe("ch", hosts[1])
        net.subscribe("ch", hosts[1], Collector(net))
        recipients, _ = net.multicast_fabric._plan("ch", hosts[0], 1)
        assert [r[0] for r in recipients] == [hosts[2], hosts[3], hosts[1]]

    def test_leaf_crash_and_recovery_keep_every_plan(self):
        net, hosts = make_net(2, 3)
        for h in hosts:
            net.subscribe("ch", h, Collector(net))
        assert self.send_from_everyone(net, hosts) == [2] * 6
        plans = dict(net.multicast_fabric._plans)
        net.crash_host(hosts[1])
        assert self.send_from_everyone(net, hosts) == [1, 0, 1, 2, 2, 2]
        net.recover_host(hosts[1])
        net.subscribe("ch", hosts[1], Collector(net))
        assert self.send_from_everyone(net, hosts) == [2] * 6
        # Same plan objects throughout, patched in place.
        assert net.multicast_fabric._plans == plans

    def test_route_change_drops_every_plan(self):
        net, hosts = make_net(2, 3)
        for h in hosts:
            net.subscribe("ch", h, Collector(net))
        self.send_from_everyone(net, hosts)
        net.fail_device("dc0-sw1")
        net.multicast(hosts[0], "ch", ttl=1, kind="x", payload=None, size=1)
        assert list(net.multicast_fabric._plans) == [("ch", hosts[0], 1)]


class TestFastSlowEquivalence:
    """Lossless sends against the topology's own scope and latency.

    The lossy draw order is pinned by the determinism guard's golden
    traces (all at 2 % loss).
    """

    @pytest.mark.parametrize("loss_rate,seed", [(0.0, 1)])
    def test_paths_deliver_identically(self, loss_rate, seed):
        net, hosts = make_net(2, 4, loss_rate=loss_rate, seed=seed)
        topo = net.topo
        sinks = {h: Collector(net) for h in hosts}
        for h, s in sinks.items():
            net.subscribe("ch", h, s)
        sends = [(src, ttl) for src in hosts[:3] for ttl in (1, 2)]
        counts = [
            net.multicast(src, "ch", ttl=ttl, kind="x", payload=None, size=7)
            for src, ttl in sends
        ]
        net.run()

        def reached(src, ttl):
            return [h for h in hosts if h != src and topo.ttl_distance(src, h) <= ttl]

        assert counts == [len(reached(src, ttl)) for src, ttl in sends]
        for h, sink in sinks.items():
            # All sends leave at t=0: arrival is the path latency, ties in
            # send order (sorted() is stable).
            expected = sorted(
                (
                    (topo.latency(src, h), src, ttl)
                    for src, ttl in sends
                    if h in reached(src, ttl)
                ),
                key=lambda d: d[0],
            )
            assert [(t, p.src, p.ttl) for t, p in sink.received] == expected
        assert net.meter.packets(direction="rx") == sum(counts)
