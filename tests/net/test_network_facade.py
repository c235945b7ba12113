"""Tests for the Network facade glue not covered elsewhere."""

import pytest

from repro.net import Network
from repro.net.builders import build_switched_cluster
from repro.sim import Trace


def make(**kwargs):
    topo, hosts = build_switched_cluster(1, 3)
    return Network(topo, **kwargs), hosts


class TestProcessingDelay:
    def test_proc_delay_added_to_multicast(self):
        net, hosts = make(proc_delay=0.01)
        seen = []
        net.subscribe("ch", hosts[1], lambda p: seen.append(net.now))
        net.multicast(hosts[0], "ch", ttl=1, kind="x", payload=None, size=1)
        net.run()
        assert seen[0] == pytest.approx(net.topo.latency(hosts[0], hosts[1]) + 0.01)

    def test_proc_delay_added_to_unicast(self):
        net, hosts = make(proc_delay=0.01)
        seen = []
        net.bind(hosts[1], "p", lambda p: seen.append(net.now))
        net.unicast(hosts[0], hosts[1], kind="x", payload=None, size=1, port="p")
        net.run()
        assert seen[0] == pytest.approx(
            net.topo.unicast_latency(hosts[0], hosts[1]) + 0.01
        )


class TestTraceWiring:
    def test_custom_trace_object_used(self):
        tr = Trace()
        net, hosts = make(trace=tr)
        net.crash_host(hosts[0])
        net.recover_host(hosts[0])
        assert [r.node for r in tr.records(kind="host_crashed")] == [hosts[0]]

    def test_crash_and_recover_emit_trace(self):
        net, hosts = make()
        net.crash_host(hosts[0])
        net.recover_host(hosts[0])
        kinds = [r.kind for r in net.trace]
        assert kinds == ["host_crashed", "host_recovered"]

    def test_device_events_traced(self):
        net, hosts = make()
        net.fail_device("dc0-sw0")
        net.recover_device("dc0-sw0")
        kinds = [r.kind for r in net.trace]
        assert kinds == ["device_failed", "device_recovered"]


class TestRunHelpers:
    def test_now_property_tracks_sim(self):
        net, hosts = make()
        net.sim.call_at(3.0, lambda: None)
        net.run(until=5.0)
        assert net.now == 5.0

    def test_seeded_rng_registry(self):
        net1, _ = make(seed=9)
        net2, _ = make(seed=9)
        assert net1.rng.stream("x").random() == net2.rng.stream("x").random()
