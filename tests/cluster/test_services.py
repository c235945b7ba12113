"""Unit tests for provider/consumer modules, load balancing, gateway."""

import pytest

from repro.cluster import (
    ConsumerModule,
    Directory,
    MachineInfo,
    NodeRecord,
    ProviderModule,
    RandomChoice,
    RandomPolling,
    ServiceSpec,
)
from repro.cluster.gateway import Gateway
from repro.net import Network
from repro.net.builders import build_switched_cluster
from repro.runtime import SimRuntime


def make_cluster(n=4):
    topo, hosts = build_switched_cluster(1, n)
    net = Network(topo, seed=3)
    return net, hosts


def make_directory(owner, providers, service="index", partitions=(1,)):
    d = Directory(owner)
    for p in providers:
        d.upsert(
            NodeRecord(p, services={service: frozenset(partitions)}), now=0.0
        )
    return d


def run_invocation(net, consumer, *args, **kwargs):
    results = []
    ev = consumer.invoke(*args, **kwargs)
    ev._add_waiter(results.append)
    net.run(until=10.0)
    assert len(results) == 1
    return results[0]


class TestMachineInfo:
    def test_roundtrip(self):
        info = MachineInfo(cpu_mhz=2000, mem_mb=4096)
        assert MachineInfo.from_attrs(info.to_attrs()) == info

    def test_from_attrs_ignores_extras(self):
        attrs = MachineInfo().to_attrs()
        attrs["Port"] = "8080"
        assert MachineInfo.from_attrs(attrs) == MachineInfo()


class TestServiceSpec:
    def test_make_with_string_partitions(self):
        s = ServiceSpec.make("index", "1-3", Port="8080")
        assert s.partitions == frozenset({1, 2, 3})
        assert s.params == {"Port": "8080"}

    def test_partition_spec_canonical(self):
        s = ServiceSpec.make("index", [3, 1, 2])
        assert s.partition_spec() == "1,2,3"


class TestProviderConsumer:
    def test_successful_invocation(self):
        net, hosts = make_cluster()
        provider = ProviderModule(SimRuntime(net, hosts[0]))
        provider.register(ServiceSpec.make("index", "1", service_time=0.01))
        provider.start()
        directory = make_directory(hosts[1], [hosts[0]])
        consumer = ConsumerModule(SimRuntime(net, hosts[1]), directory)
        consumer.start()
        result = run_invocation(net, consumer, "index", 1, {"q": "hello"})
        assert result.ok
        assert result.server == hosts[0]
        assert result.value == {"partition": 1, "echo": {"q": "hello"}}
        assert result.latency >= 0.01

    def test_custom_handler(self):
        net, hosts = make_cluster()
        provider = ProviderModule(SimRuntime(net, hosts[0]))
        provider.register(
            ServiceSpec.make("sq", "0"), handler=lambda part, data: data * data
        )
        provider.start()
        consumer = ConsumerModule(SimRuntime(net, hosts[1]), make_directory(hosts[1], [hosts[0]], "sq", (0,)))
        consumer.start()
        result = run_invocation(net, consumer, "sq", 0, 7)
        assert result.ok and result.value == 49

    def test_unknown_service_fails(self):
        net, hosts = make_cluster()
        provider = ProviderModule(SimRuntime(net, hosts[0]))
        provider.register(ServiceSpec.make("index", "1"))
        provider.start()
        consumer = ConsumerModule(SimRuntime(net, hosts[1]), make_directory(hosts[1], [hosts[0]], "cache", (1,)))
        consumer.start()
        result = run_invocation(net, consumer, "cache", 1)
        assert not result.ok and result.error == "no_such_service"

    def test_wrong_partition_fails(self):
        net, hosts = make_cluster()
        provider = ProviderModule(SimRuntime(net, hosts[0]))
        provider.register(ServiceSpec.make("index", "1"))
        provider.start()
        consumer = ConsumerModule(SimRuntime(net, hosts[1]), make_directory(hosts[1], [hosts[0]], "index", (2,)))
        consumer.start()
        result = run_invocation(net, consumer, "index", 2)
        assert not result.ok and result.error == "no_such_service"

    def test_unavailable_when_directory_empty(self):
        net, hosts = make_cluster()
        consumer = ConsumerModule(SimRuntime(net, hosts[1]), Directory(hosts[1]))
        consumer.start()
        result = run_invocation(net, consumer, "index", 1)
        assert not result.ok and result.error == "unavailable"

    def test_unavailable_handler_hook(self):
        net, hosts = make_cluster()
        consumer = ConsumerModule(SimRuntime(net, hosts[1]), Directory(hosts[1]))
        consumer.start()
        calls = []

        def forward(service, partition, data, completion):
            calls.append((service, partition))
            from repro.cluster.consumer import InvocationResult

            completion.succeed(InvocationResult(True, "remote", None, 0.09, "remote-dc"))
            return True

        consumer.unavailable_handler = forward
        result = run_invocation(net, consumer, "index", 1)
        assert result.ok and result.value == "remote"
        assert calls == [("index", 1)]

    def test_timeout_on_dead_provider(self):
        net, hosts = make_cluster()
        provider = ProviderModule(SimRuntime(net, hosts[0]))
        provider.register(ServiceSpec.make("index", "1"))
        provider.start()
        consumer = ConsumerModule(
            SimRuntime(net, hosts[1]), make_directory(hosts[1], [hosts[0]]), request_timeout=0.5
        )
        consumer.start()
        net.crash_host(hosts[0])
        result = run_invocation(net, consumer, "index", 1)
        assert not result.ok and result.error == "timeout"
        assert result.latency == pytest.approx(0.5)

    def test_provider_load_tracks_inflight(self):
        net, hosts = make_cluster()
        provider = ProviderModule(SimRuntime(net, hosts[0]))
        provider.register(ServiceSpec.make("slow", "1", service_time=1.0))
        provider.start()
        consumer = ConsumerModule(SimRuntime(net, hosts[1]), make_directory(hosts[1], [hosts[0]], "slow", (1,)))
        consumer.start()
        for _ in range(3):
            consumer.invoke("slow", 1)
        net.run(until=0.5)
        assert provider.load == 3
        net.run(until=3.0)
        assert provider.load == 0
        assert provider.served == 3

    def test_restart_drops_requests_of_the_old_life(self):
        # A request still in service when the provider is killed dies
        # with it: no reply after a quick restart, and its completion
        # does not decrement the new life's load count.
        net, hosts = make_cluster()
        provider = ProviderModule(SimRuntime(net, hosts[0]))
        provider.register(ServiceSpec.make("slow", "1", service_time=0.5))
        provider.start()
        consumer = ConsumerModule(
            SimRuntime(net, hosts[1]),
            make_directory(hosts[1], [hosts[0]], "slow", (1,)),
            request_timeout=5.0,
        )
        consumer.start()
        before, after = [], []
        consumer.invoke("slow", 1)._add_waiter(before.append)
        net.run(until=0.05)
        assert provider.load == 1
        provider.stop()
        net.run(until=0.1)
        provider.start()
        net.run(until=0.2)
        consumer.invoke("slow", 1)._add_waiter(after.append)
        net.run(until=0.6)
        assert before == []  # no reply from the previous life
        assert provider.load == 1  # only the post-restart request
        net.run(until=1.0)
        assert [r.ok for r in after] == [True]
        assert before == [] and provider.load == 0

    def test_provider_stop_drops_requests(self):
        net, hosts = make_cluster()
        provider = ProviderModule(SimRuntime(net, hosts[0]))
        provider.register(ServiceSpec.make("index", "1"))
        provider.start()
        provider.stop()
        consumer = ConsumerModule(
            SimRuntime(net, hosts[1]), make_directory(hosts[1], [hosts[0]]), request_timeout=0.2
        )
        consumer.start()
        result = run_invocation(net, consumer, "index", 1)
        assert not result.ok and result.error == "timeout"


class TestLoadBalancers:
    def test_random_choice_uniform_coverage(self):
        import random

        rng = random.Random(1)
        lb = RandomChoice()
        picks = {lb.choose(["a", "b", "c"], rng) for _ in range(100)}
        assert picks == {"a", "b", "c"}

    def test_random_choice_empty_raises(self):
        import random

        with pytest.raises(ValueError):
            RandomChoice().choose([], random.Random(1))

    def test_random_polling_targets_bounded(self):
        import random

        lb = RandomPolling(d=2)
        targets = lb.poll_targets(["a", "b", "c", "d"], random.Random(1))
        assert len(targets) == 2

    def test_random_polling_picks_least_loaded(self):
        import random

        lb = RandomPolling(d=2)
        pick = lb.pick_from_loads({"a": 5, "b": 1}, ["a", "b"], random.Random(1))
        assert pick == "b"

    def test_random_polling_no_replies_falls_back(self):
        import random

        lb = RandomPolling(d=2)
        pick = lb.pick_from_loads({}, ["a", "b"], random.Random(1))
        assert pick in {"a", "b"}

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            RandomPolling(d=0)

    def test_polling_end_to_end_prefers_idle_replica(self):
        net, hosts = make_cluster(4)
        busy = ProviderModule(SimRuntime(net, hosts[0]))
        idle = ProviderModule(SimRuntime(net, hosts[1]))
        for p in (busy, idle):
            p.register(ServiceSpec.make("index", "1", service_time=0.5))
            p.start()
        directory = make_directory(hosts[2], [hosts[0], hosts[1]])
        consumer = ConsumerModule(
            SimRuntime(net, hosts[2]), directory, balancer=RandomPolling(d=2), poll_timeout=0.02
        )
        consumer.start()
        # Saturate the busy provider directly.
        loader = ConsumerModule(SimRuntime(net, hosts[3]), make_directory(hosts[3], [hosts[0]]))
        loader.start()
        for _ in range(5):
            loader.invoke("index", 1)
        results = []
        ev = consumer.invoke("index", 1)
        ev._add_waiter(results.append)
        net.run(until=5.0)
        assert results[0].ok
        assert results[0].server == hosts[1]


class TestGateway:
    def test_fixed_rate_issues_requests(self):
        net, hosts = make_cluster()
        provider = ProviderModule(SimRuntime(net, hosts[0]))
        provider.register(ServiceSpec.make("index", "1", service_time=0.001))
        provider.start()
        consumer = ConsumerModule(SimRuntime(net, hosts[1]), make_directory(hosts[1], [hosts[0]]))
        consumer.start()
        gw = Gateway(
            SimRuntime(net, hosts[1]),
            executor=consumer.invoke,
            workload=lambda seq: {"service": "index", "partition": 1, "data": seq},
            rate=10.0,
        )
        gw.start()
        net.run(until=2.0)
        gw.stop()
        net.run(until=3.0)
        assert gw.stats.issued == 19  # first at t=0.1, last at t=1.9
        assert gw.stats.completed == 19
        assert gw.stats.failed == 0

    def test_restart_inside_an_arrival_gap_keeps_the_rate(self):
        net, hosts = make_cluster()
        consumer = ConsumerModule(SimRuntime(net, hosts[1]), Directory(hosts[1]))
        consumer.start()
        gw = Gateway(
            SimRuntime(net, hosts[1]),
            executor=consumer.invoke,
            workload=lambda seq: {"service": "missing"},
            rate=10.0,
        )
        gw.start()
        net.run(until=0.05)
        gw.stop()
        gw.start()  # before the first arrival at t=0.1
        net.run(until=1.05)
        assert gw.stats.issued == 10  # one chain: t = 0.15, 0.25, ..., 0.95

    def test_stats_series(self):
        net, hosts = make_cluster()
        provider = ProviderModule(SimRuntime(net, hosts[0]))
        provider.register(ServiceSpec.make("index", "1", service_time=0.001))
        provider.start()
        consumer = ConsumerModule(SimRuntime(net, hosts[1]), make_directory(hosts[1], [hosts[0]]))
        consumer.start()
        gw = Gateway(
            SimRuntime(net, hosts[1]),
            executor=consumer.invoke,
            workload=lambda seq: {"service": "index", "partition": 1},
            rate=5.0,
        )
        gw.start()
        net.run(until=3.0)
        series = dict(gw.stats.throughput_series())
        assert series[1] == 5
        rts = dict(gw.stats.response_time_series())
        assert all(0.0 < v < 0.01 for v in rts.values())

    def test_failures_recorded(self):
        net, hosts = make_cluster()
        consumer = ConsumerModule(SimRuntime(net, hosts[1]), Directory(hosts[1]))
        consumer.start()
        gw = Gateway(
            SimRuntime(net, hosts[1]),
            executor=consumer.invoke,
            workload=lambda seq: {"service": "missing"},
            rate=4.0,
        )
        gw.start()
        net.run(until=1.1)
        assert gw.stats.failed == 4
        assert gw.stats.completed == 0

    def test_poisson_arrivals(self):
        net, hosts = make_cluster()
        consumer = ConsumerModule(SimRuntime(net, hosts[1]), Directory(hosts[1]))
        consumer.start()
        gw = Gateway(
            SimRuntime(net, hosts[1]),
            executor=consumer.invoke,
            workload=lambda seq: {"service": "missing"},
            rate=50.0,
            jitter_rng=net.rng.stream("arrivals"),
        )
        gw.start()
        net.run(until=10.0)
        assert 350 < gw.stats.issued < 650  # ~500 expected

    def test_invalid_rate(self):
        net, _ = make_cluster()
        with pytest.raises(ValueError):
            Gateway(SimRuntime(net, "gw"), executor=None, workload=None, rate=0.0)
