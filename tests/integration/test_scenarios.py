"""Cross-cutting integration scenarios exercising several packages at once."""

import pytest

from repro.cluster import (
    ConsumerModule,
    FailureSchedule,
    LoadAwareBalancer,
    LoadReporter,
    LoadTracker,
    ProviderModule,
    ServiceSpec,
)
from repro.core import (
    HierarchicalNode,
    MClient,
    MService,
    MembershipProxy,
    install_proxy_forwarding,
)
from repro.net import Network
from repro.net.builders import build_switched_cluster
from repro.protocols import deploy
from repro.runtime import SimRuntime


class TestChurnSoak:
    """Rolling restarts under packet loss: the cluster never loses truth."""

    def test_rolling_restart_converges(self):
        topo, hosts = build_switched_cluster(3, 8)
        net = Network(topo, seed=21, loss_rate=0.01)
        nodes = deploy(HierarchicalNode, net, hosts)
        sched = FailureSchedule(net)
        for h, n in nodes.items():
            sched.register_stack(h, n)
        net.run(until=15.0)
        # Roll through six nodes: kill, wait, recover, staggered.
        t = 15.0
        for h in hosts[3:9]:
            sched.crash_node_at(t, h)
            sched.recover_node_at(t + 12.0, h)
            t += 4.0
        net.run(until=t + 60.0)
        for h, node in nodes.items():
            assert node.view() == sorted(hosts), h

    def test_flapping_node(self):
        topo, hosts = build_switched_cluster(2, 6)
        net = Network(topo, seed=22)
        nodes = deploy(HierarchicalNode, net, hosts)
        sched = FailureSchedule(net)
        flapper = hosts[4]
        sched.register_stack(flapper, nodes[flapper])
        net.run(until=15.0)
        t = 15.0
        for _ in range(3):  # die / return / die / return / die / return
            sched.crash_node_at(t, flapper)
            sched.recover_node_at(t + 8.0, flapper)
            t += 16.0
        net.run(until=t + 40.0)
        for node in nodes.values():
            assert node.view() == sorted(hosts)
        # Final incarnation reflects every restart.
        assert nodes[hosts[0]].directory.get(flapper).incarnation == 4


class TestServiceStackIntegration:
    """MService + providers + load-info + consumers end to end."""

    def test_directory_driven_invocation_with_load_reports(self):
        topo, hosts = build_switched_cluster(1, 6)
        net = Network(topo, seed=23)
        daemons = {h: MService(net, h) for h in hosts}
        for ms in daemons.values():
            ms.run()
        # Two replicas of a slow service.
        providers = {}
        for h in hosts[:2]:
            p = ProviderModule(SimRuntime(net, h))
            p.register(ServiceSpec.make("svc", "0", service_time=0.4))
            p.start()
            providers[h] = p
            daemons[h].register_service("svc", "0")
            LoadReporter(SimRuntime(net, h), p, report_period=0.25).start()
        net.run(until=12.0)

        tracker = LoadTracker(SimRuntime(net, hosts[3]), staleness=3.0)
        tracker.start()
        consumer = ConsumerModule(
            SimRuntime(net, hosts[3]),
            daemons[hosts[3]].node.directory,
            balancer=LoadAwareBalancer(tracker),
            request_timeout=5.0,
        )
        consumer.start()
        results = []
        for _ in range(12):
            consumer.invoke("svc", 0)._add_waiter(results.append)
        net.run(until=net.now + 10.0)
        assert all(r.ok for r in results)
        served = {h: providers[h].served for h in providers}
        # Load-aware balancing used both replicas.
        assert all(count > 0 for count in served.values())

    def test_mclient_view_matches_protocol_view(self):
        topo, hosts = build_switched_cluster(2, 5)
        net = Network(topo, seed=24)
        daemons = {h: MService(net, h) for h in hosts}
        for ms in daemons.values():
            ms.run()
        net.run(until=12.0)
        client = MClient(net, hosts[0], 999)
        assert client.members() == daemons[hosts[0]].node.view()


class TestThreeDataCenters:
    """The proxy protocol generalises beyond the paper's two DCs."""

    def make_three_dc(self, seed=25):
        from repro.net import Topology
        from repro.net.builders import build_switched_cluster as build

        t = Topology()
        dcs = ("dcA", "dcB", "dcC")
        hostlists = {}
        borders = []
        for dc in dcs:
            _t, hosts = build(1, 5, dc=dc, topo=t)
            hostlists[dc] = hosts
            border = f"{dc}-border"
            t.add_router(border, dc=dc)
            t.add_link(border, f"{dc}-sw0", latency=0.0002)
            borders.append(border)
        # Full WAN mesh.
        for i in range(len(borders)):
            for j in range(i + 1, len(borders)):
                t.add_link(borders[i], borders[j], latency=0.045, wan=True)
        net = Network(t, seed=seed)
        addrs = {dc: f"vip-{dc}" for dc in dcs}
        nodes = {}
        proxies = []
        for dc in dcs:
            nodes.update(deploy(HierarchicalNode, net, hostlists[dc]))
            for h in hostlists[dc][:2]:
                p = MembershipProxy(
                    SimRuntime(net, h), SimRuntime(net, h), dc, addrs[dc], addrs, nodes[h]
                )
                p.start()
                proxies.append(p)
        return net, dcs, hostlists, nodes, proxies, addrs

    def test_summaries_full_mesh(self):
        net, dcs, hostlists, nodes, proxies, addrs = self.make_three_dc()
        # A unique service in each DC.
        for dc in dcs:
            host = hostlists[dc][3]
            p = ProviderModule(SimRuntime(net, host))
            p.register(ServiceSpec.make(f"svc-{dc}", "0", service_time=0.005))
            p.start()
            nodes[host].register_service(ServiceSpec.make(f"svc-{dc}", "0"))
        net.run(until=15.0)
        leaders = [p for p in proxies if p.is_leader]
        assert len(leaders) == 3
        for p in leaders:
            others = [d for d in dcs if d != p.dc]
            assert p.known_remote_dcs() == sorted(others)

    def test_forwarding_picks_a_dc_that_has_the_service(self):
        net, dcs, hostlists, nodes, proxies, addrs = self.make_three_dc()
        host = hostlists["dcC"][3]
        p = ProviderModule(SimRuntime(net, host))
        p.register(ServiceSpec.make("rare", "0", service_time=0.005))
        p.start()
        nodes[host].register_service(ServiceSpec.make("rare", "0"))
        net.run(until=15.0)
        consumer = ConsumerModule(SimRuntime(net, hostlists["dcA"][4]), nodes[hostlists["dcA"][4]].directory)
        consumer.start()
        install_proxy_forwarding(consumer, "vip-dcA")
        results = []
        consumer.invoke("rare", 0)._add_waiter(results.append)
        net.run(until=net.now + 3.0)
        assert results[0].ok
        assert results[0].server == host


class TestSchemeInterchangeability:
    """All three schemes drive the same consumer stack unchanged."""

    @pytest.mark.parametrize("scheme", ["all-to-all", "gossip", "hierarchical"])
    def test_invocation_over_any_scheme(self, scheme):
        from repro.metrics import make_scheme_cluster

        net, hosts, nodes = make_scheme_cluster(scheme, 1, 6, seed=26)
        provider = ProviderModule(SimRuntime(net, hosts[0]))
        provider.register(ServiceSpec.make("echo", "0", service_time=0.002))
        provider.start()
        nodes[hosts[0]].register_service(ServiceSpec.make("echo", "0"))
        net.run(until=20.0)
        consumer = ConsumerModule(SimRuntime(net, hosts[3]), nodes[hosts[3]].directory)
        consumer.start()
        results = []
        consumer.invoke("echo", 0, "ping")._add_waiter(results.append)
        net.run(until=net.now + 3.0)
        assert results[0].ok
        assert results[0].value["echo"] == "ping"
