"""Tests for the membership proxy protocol (paper Section 3.2, Fig. 6)."""

from repro.cluster import ConsumerModule, Directory, NodeRecord, ProviderModule, ServiceSpec
from repro.core import (
    HierarchicalNode,
    MembershipProxy,
    ServiceSummary,
    install_proxy_forwarding,
)
from repro.core import proxy as proxy_module
from repro.net import Network
from repro.net.builders import build_two_datacenters
from repro.protocols import deploy
from repro.runtime import SimRuntime

ADDRS = {"dcA": "vip-A", "dcB": "vip-B"}


def make_proxy(net, host, dc, node):
    """A proxy daemon on ``host``, with its consumer as a second process."""
    return MembershipProxy(
        SimRuntime(net, host), SimRuntime(net, host), dc, ADDRS[dc], ADDRS, node
    )


def make_consumer(net, host, directory):
    consumer = ConsumerModule(SimRuntime(net, host), directory)
    consumer.start()
    return consumer


def make_provider(net, host, svc, service_time=0.005):
    p = ProviderModule(SimRuntime(net, host))
    p.register(ServiceSpec.make(svc, "0", service_time=service_time))
    p.start()
    return p


def make_two_dc(networks=2, hosts=5, seed=1, proxies_per_dc=2, services_b=("retrieve",)):
    """Two DCs with membership everywhere, providers for ``services_b`` in dcB."""
    topo, dca, dcb = build_two_datacenters(networks, hosts)
    net = Network(topo, seed=seed)
    nodes = {}
    nodes.update(deploy(HierarchicalNode, net, dca))
    nodes.update(deploy(HierarchicalNode, net, dcb))
    providers = []
    for svc in services_b:
        host = dcb[3]
        providers.append(make_provider(net, host, svc))
        nodes[host].register_service(ServiceSpec.make(svc, "0"))
    proxies = []
    for dc, hostlist in (("dcA", dca), ("dcB", dcb)):
        for h in hostlist[:proxies_per_dc]:
            proxy = make_proxy(net, h, dc, nodes[h])
            proxy.start()
            proxies.append(proxy)
    return net, dca, dcb, nodes, proxies, providers


def invoke(net, consumer, *args, until=None, **kwargs):
    results = []
    ev = consumer.invoke(*args, **kwargs)
    ev._add_waiter(results.append)
    net.run(until=until if until is not None else net.now + 5.0)
    assert results, "invocation never completed"
    return results[0]


class TestServiceSummary:
    def test_from_directory_unions_partitions(self):
        d = Directory("me")
        d.upsert(NodeRecord("a", services={"idx": frozenset({1, 2})}), now=0.0)
        d.upsert(NodeRecord("b", services={"idx": frozenset({3})}), now=0.0)
        s = ServiceSummary.from_directory(d)
        assert s.as_dict() == {"idx": frozenset({1, 2, 3})}

    def test_provides(self):
        s = ServiceSummary((("idx", frozenset({1, 2})),))
        assert s.provides("idx", 1)
        assert s.provides("idx", None)
        assert not s.provides("idx", 3)
        assert not s.provides("doc", 1)

    def test_chunks(self):
        entries = tuple((f"s{i}", frozenset({0})) for i in range(10))
        s = ServiceSummary(entries)
        chunks = s.chunks(4)
        assert [len(c) for c in chunks] == [4, 4, 2]
        merged = tuple(e for c in chunks for e in c.services)
        assert merged == entries

    def test_chunks_small_summary_single_packet(self):
        s = ServiceSummary((("a", frozenset({0})),))
        assert s.chunks(64) == [s]


class TestProxyGroup:
    def test_one_leader_per_dc(self):
        net, dca, dcb, nodes, proxies, _ = make_two_dc()
        net.run(until=12.0)
        leaders = [(p.dc, p.host) for p in proxies if p.is_leader]
        assert len(leaders) == 2
        assert {dc for dc, _h in leaders} == {"dcA", "dcB"}

    def test_leader_owns_external_address(self):
        net, dca, dcb, nodes, proxies, _ = make_two_dc()
        net.run(until=12.0)
        for p in proxies:
            if p.is_leader:
                assert net.transport.address_owner(p.external_addr) == p.host

    def test_summaries_exchanged(self):
        net, dca, dcb, nodes, proxies, _ = make_two_dc()
        net.run(until=12.0)
        pa = next(p for p in proxies if p.dc == "dcA" and p.is_leader)
        assert pa.known_remote_dcs() == ["dcB"]
        assert pa.remote["dcB"].summary.get("retrieve") == frozenset({0})

    def test_non_leader_proxies_warm_via_relay(self):
        net, dca, dcb, nodes, proxies, _ = make_two_dc()
        net.run(until=12.0)
        followers = [p for p in proxies if p.dc == "dcA" and not p.is_leader]
        assert followers
        for p in followers:
            assert p.remote["dcB"].summary.get("retrieve") == frozenset({0})

    def test_ip_failover_on_leader_death(self):
        net, dca, dcb, nodes, proxies, _ = make_two_dc()
        net.run(until=12.0)
        pa = next(p for p in proxies if p.dc == "dcA" and p.is_leader)
        old_host = pa.host
        pa.stop()
        nodes[old_host].stop()
        net.crash_host(old_host)
        net.run(until=35.0)
        new_leader = next(p for p in proxies if p.dc == "dcA" and p.is_leader)
        assert new_leader.host != old_host
        assert net.transport.address_owner("vip-A") == new_leader.host

    def test_remote_summary_expires_when_dc_unreachable(self):
        net, dca, dcb, nodes, proxies, _ = make_two_dc()
        net.run(until=12.0)
        pa = next(p for p in proxies if p.dc == "dcA" and p.is_leader)
        assert pa.known_remote_dcs() == ["dcB"]
        net.fail_device("dcA-border")  # WAN cut
        net.run(until=25.0)
        assert pa.known_remote_dcs() == []


class TestRobustness:
    def test_summaries_survive_wan_loss(self):
        topo, dca, dcb = build_two_datacenters(2, 5)
        net = Network(topo, seed=8, loss_rate=0.10)
        nodes = {}
        nodes.update(deploy(HierarchicalNode, net, dca))
        nodes.update(deploy(HierarchicalNode, net, dcb))
        host = dcb[3]
        make_provider(net, host, "svc")
        nodes[host].register_service(ServiceSpec.make("svc", "0"))
        proxies = []
        for dc, hostlist in (("dcA", dca), ("dcB", dcb)):
            for h in hostlist[:2]:
                proxy = make_proxy(net, h, dc, nodes[h])
                proxy.start()
                proxies.append(proxy)
        net.run(until=20.0)
        pa = next(px for px in proxies if px.dc == "dcA" and px.is_leader)
        # Periodic summaries are soft state: individual losses don't matter.
        assert pa.known_remote_dcs() == ["dcB"]
        assert pa.remote["dcB"].summary.get("svc") == frozenset({0})

    def test_large_summary_chunked_and_reassembled(self, monkeypatch):
        monkeypatch.setattr(proxy_module, "MAX_ENTRIES_PER_PACKET", 4)
        net, dca, dcb, nodes, proxies, _ = make_two_dc(services_b=())
        # 11 distinct services in dcB -> 3 chunks per summary.
        for i in range(11):
            host = dcb[3]
            nodes[host].register_service(ServiceSpec.make(f"svc{i:02d}", "0"))
        net.run(until=20.0)
        pa = next(px for px in proxies if px.dc == "dcA" and px.is_leader)
        assert pa.known_remote_dcs() == ["dcB"]
        names = {n for n in pa.remote["dcB"].summary if n.startswith("svc")}
        assert names == {f"svc{i:02d}" for i in range(11)}

    def test_epoch_resets_partial_state(self):
        proxy = MembershipProxy.__new__(MembershipProxy)
        proxy.remote = {}
        proxy.runtime = type("R", (), {"now": 10.0})()
        proxy._merge_remote_summary("dcX", 1, [("a", frozenset({0}))], final=False)
        proxy._merge_remote_summary("dcX", 2, [("b", frozenset({1}))], final=True)
        state = proxy.remote["dcX"]
        assert "a" not in state.summary  # epoch 1 chunk discarded
        assert state.summary["b"] == frozenset({1})
        # Stale chunk from an old epoch arrives late: ignored.
        proxy._merge_remote_summary("dcX", 1, [("c", frozenset({2}))], final=True)
        assert "c" not in state.summary


class TestForwarding:
    def test_cross_dc_invocation(self):
        net, dca, dcb, nodes, proxies, _ = make_two_dc()
        net.run(until=12.0)
        consumer = make_consumer(net, dca[4], nodes[dca[4]].directory)
        install_proxy_forwarding(consumer, "vip-A")
        result = invoke(net, consumer, "retrieve", 0, {"q": "x"})
        assert result.ok
        assert result.value["echo"] == {"q": "x"}
        # One WAN round trip dominates: >= 90 ms.
        assert result.latency >= 0.09

    def test_local_service_not_forwarded(self):
        net, dca, dcb, nodes, proxies, _ = make_two_dc()
        make_provider(net, dca[3], "retrieve")
        nodes[dca[3]].register_service(ServiceSpec.make("retrieve", "0"))
        net.run(until=12.0)
        consumer = make_consumer(net, dca[4], nodes[dca[4]].directory)
        install_proxy_forwarding(consumer, "vip-A")
        result = invoke(net, consumer, "retrieve", 0)
        assert result.ok
        assert result.latency < 0.05  # stayed local

    def test_unknown_service_rejected(self):
        net, dca, dcb, nodes, proxies, _ = make_two_dc()
        net.run(until=12.0)
        consumer = make_consumer(net, dca[4], nodes[dca[4]].directory)
        install_proxy_forwarding(consumer, "vip-A")
        result = invoke(net, consumer, "nonexistent", 0)
        assert not result.ok
        assert result.error == "no_remote_dc"

    def test_wrong_partition_rejected(self):
        net, dca, dcb, nodes, proxies, _ = make_two_dc()
        net.run(until=12.0)
        consumer = make_consumer(net, dca[4], nodes[dca[4]].directory)
        install_proxy_forwarding(consumer, "vip-A")
        result = invoke(net, consumer, "retrieve", 7)
        assert not result.ok

    def test_forwarding_after_proxy_failover(self):
        net, dca, dcb, nodes, proxies, _ = make_two_dc()
        net.run(until=12.0)
        pa = next(p for p in proxies if p.dc == "dcA" and p.is_leader)
        pa.stop()
        nodes[pa.host].stop()
        net.crash_host(pa.host)
        net.run(until=35.0)
        consumer = make_consumer(net, dca[4], nodes[dca[4]].directory)
        install_proxy_forwarding(consumer, "vip-A")
        result = invoke(net, consumer, "retrieve", 0)
        assert result.ok

    def test_wan_cut_fails_gracefully(self):
        net, dca, dcb, nodes, proxies, _ = make_two_dc()
        net.run(until=12.0)
        net.fail_device("dcB-border")
        net.run(until=25.0)
        consumer = make_consumer(net, dca[4], nodes[dca[4]].directory)
        install_proxy_forwarding(consumer, "vip-A")
        result = invoke(net, consumer, "retrieve", 0)
        assert not result.ok
        assert result.error in ("no_remote_dc", "remote_timeout", "proxy_timeout")

    def test_summary_updates_after_remote_service_appears(self):
        net, dca, dcb, nodes, proxies, _ = make_two_dc(services_b=())
        net.run(until=12.0)
        consumer = make_consumer(net, dca[4], nodes[dca[4]].directory)
        install_proxy_forwarding(consumer, "vip-A")
        result = invoke(net, consumer, "newsvc", 0)
        assert not result.ok
        # Service appears in dcB at runtime.
        make_provider(net, dcb[2], "newsvc", service_time=0.001)
        nodes[dcb[2]].register_service(ServiceSpec.make("newsvc", "0"))
        net.run(until=net.now + 5.0)
        result = invoke(net, consumer, "newsvc", 0)
        assert result.ok
