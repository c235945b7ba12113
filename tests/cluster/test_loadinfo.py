"""Tests for the interest-scoped load-information protocol."""

import pytest

from repro.cluster import (
    ConsumerModule,
    Directory,
    LoadAwareBalancer,
    LoadReporter,
    LoadTracker,
    NodeRecord,
    ProviderModule,
    ServiceSpec,
)
from repro.net import Network
from repro.net.builders import build_switched_cluster


def make_setup(n=5, seed=1, service_time=0.5):
    topo, hosts = build_switched_cluster(1, n)
    net = Network(topo, seed=seed)
    providers = {}
    reporters = {}
    for h in hosts[:2]:
        p = ProviderModule(net, h)
        p.register(ServiceSpec.make("svc", "0", service_time=service_time))
        p.start()
        providers[h] = p
        r = LoadReporter(net, h, p, report_period=0.25, interest_ttl=5.0)
        r.start()
        reporters[h] = r
    directory = Directory(hosts[2])
    for h in hosts[:2]:
        directory.upsert(NodeRecord(h, services={"svc": frozenset({0})}), now=0.0)
    return net, hosts, providers, reporters, directory


def run_invoke(net, consumer, *args, **kwargs):
    out = []
    consumer.invoke(*args, **kwargs)._add_waiter(out.append)
    net.run(until=net.now + 3.0)
    return out[0]


class TestLoadReporter:
    def test_interest_established_by_request(self):
        net, hosts, providers, reporters, directory = make_setup()
        consumer = ConsumerModule(net, hosts[2], directory)
        consumer.start()
        run_invoke(net, consumer, "svc", 0)
        interested = set()
        for r in reporters.values():
            interested.update(r.interested())
        assert hosts[2] in interested

    def test_interest_expires(self):
        net, hosts, providers, reporters, directory = make_setup()
        consumer = ConsumerModule(net, hosts[2], directory)
        consumer.start()
        result = run_invoke(net, consumer, "svc", 0)
        server = result.server
        net.run(until=net.now + 10.0)  # past interest_ttl
        assert reporters[server].interested() == []

    def test_reports_flow_to_interested_only(self):
        net, hosts, providers, reporters, directory = make_setup()
        tracker = LoadTracker(net, hosts[2], staleness=3.0)
        tracker.start()
        bystander = LoadTracker(net, hosts[3], staleness=3.0)
        bystander.start()
        consumer = ConsumerModule(net, hosts[2], directory)
        consumer.start()
        result = run_invoke(net, consumer, "svc", 0)
        net.run(until=net.now + 1.0)
        assert tracker.load_of(result.server) is not None
        assert bystander.known_servers() == []

    def test_reported_load_tracks_inflight(self):
        net, hosts, providers, reporters, directory = make_setup(service_time=2.0)
        tracker = LoadTracker(net, hosts[2], staleness=3.0)
        tracker.start()
        consumer = ConsumerModule(net, hosts[2], directory, request_timeout=5.0)
        consumer.start()
        # Saturate one provider with 3 slow requests.
        target = hosts[0]
        for _ in range(3):
            consumer._dispatch(target, "svc", 0, None, _DummyEvent(net), net.now, 0)
        net.run(until=net.now + 1.0)
        assert tracker.load_of(target) == 3

    def test_stale_entries_expire(self):
        net, hosts, providers, reporters, directory = make_setup()
        tracker = LoadTracker(net, hosts[2], staleness=1.0)
        tracker.start()
        consumer = ConsumerModule(net, hosts[2], directory)
        consumer.start()
        result = run_invoke(net, consumer, "svc", 0)
        server = result.server
        reporters[server].stop()  # reports cease
        net.run(until=net.now + 3.0)
        assert tracker.load_of(server) is None

    def test_stop_is_clean(self):
        net, hosts, providers, reporters, directory = make_setup()
        for r in reporters.values():
            r.stop()
            r.stop()
        net.run(until=net.now + 2.0)
        assert all(r.reports_sent == 0 for r in reporters.values())


class _DummyEvent:
    def __init__(self, net):
        from repro.sim import Event

        self._ev = Event(net.sim)

    def succeed(self, value=None):
        pass


class TestLoadAwareBalancer:
    def test_prefers_least_loaded_known(self):
        net, hosts, providers, reporters, directory = make_setup(service_time=2.0)
        tracker = LoadTracker(net, hosts[2], staleness=5.0)
        tracker.start()
        balancer = LoadAwareBalancer(tracker)
        consumer = ConsumerModule(net, hosts[2], directory, balancer=balancer, request_timeout=10.0)
        consumer.start()
        # Prime interest + cache on both providers.
        run_invoke(net, consumer, "svc", 0)
        run_invoke(net, consumer, "svc", 0)
        net.run(until=net.now + 1.0)
        # Saturate provider 0 directly.
        for _ in range(4):
            consumer._dispatch(hosts[0], "svc", 0, None, _DummyEvent(net), net.now, 0)
        net.run(until=net.now + 0.6)  # let a report cycle pass
        assert tracker.load_of(hosts[0]) >= 4
        # Now the balancer must route to the idle provider.
        rng = net.rng.stream("test")
        picks = {balancer.choose([hosts[0], hosts[1]], rng) for _ in range(20)}
        assert hosts[1] in picks
        assert all(p == hosts[1] for p in picks if p != hosts[0])
        counts = [balancer.choose([hosts[0], hosts[1]], rng) for _ in range(50)]
        assert counts.count(hosts[1]) > 40

    def test_unknown_candidates_fall_back_to_random(self):
        net, hosts, providers, reporters, directory = make_setup()
        tracker = LoadTracker(net, hosts[2], staleness=5.0)
        tracker.start()
        balancer = LoadAwareBalancer(tracker)
        rng = net.rng.stream("test")
        picks = {balancer.choose([hosts[0], hosts[1]], rng) for _ in range(30)}
        assert picks == {hosts[0], hosts[1]}

    def test_empty_candidates_rejected(self):
        net, hosts, providers, reporters, directory = make_setup()
        tracker = LoadTracker(net, hosts[2])
        balancer = LoadAwareBalancer(tracker)
        with pytest.raises(ValueError):
            balancer.choose([], net.rng.stream("x"))
