"""Tests for the prototype search service (paper Fig. 1 / Fig. 14)."""

import pytest

from repro.apps import SearchDeployment, SearchWorkload
from repro.apps.search import _doc_handler, _index_handler
from repro.cluster.gateway import Gateway
from repro.runtime import SimRuntime


class TestWorkload:
    def test_index_partition_deterministic_and_in_range(self):
        w = SearchWorkload(index_partitions=2)
        for q in ("a", "b", "hello"):
            p = w.index_partition(q)
            assert 0 <= p < 2
            assert p == w.index_partition(q)

    def test_doc_partitions_distinct_and_in_range(self):
        w = SearchWorkload(doc_partitions=3, docs_per_query=2)
        parts = w.doc_partitions_for("query")
        assert len(parts) == 2
        assert len(set(parts)) == 2
        assert all(0 <= p < 3 for p in parts)

    def test_docs_per_query_capped_by_partitions(self):
        w = SearchWorkload(doc_partitions=2, docs_per_query=5)
        assert len(w.doc_partitions_for("q")) == 2

    def test_handlers_deterministic(self):
        r1 = _index_handler(0, {"query": "x"})
        r2 = _index_handler(0, {"query": "x"})
        assert r1 == r2 and len(r1["doc_ids"]) == 3
        d = _doc_handler(1, {"doc_ids": r1["doc_ids"]})
        assert set(d["descriptions"]) == set(r1["doc_ids"])


@pytest.fixture(scope="module")
def deployment():
    dep = SearchDeployment(networks=3, hosts_per_network=6, seed=1)
    dep.warm_up(15.0)
    return dep


class TestQueries:
    def test_successful_query(self, deployment):
        net = deployment.network
        results = []
        ev = deployment.engines["dcA"].query("hello world")
        ev._add_waiter(results.append)
        net.run(until=net.now + 2.0)
        res = results[0]
        assert res.ok
        assert res.value["query"] == "hello world"
        assert len(res.value["descriptions"]) == 3
        assert res.latency < 0.1  # all-local path

    def test_both_dcs_serve_locally(self, deployment):
        net = deployment.network
        for dc in ("dcA", "dcB"):
            results = []
            deployment.engines[dc].query(f"q-{dc}")._add_waiter(results.append)
            net.run(until=net.now + 2.0)
            assert results[0].ok and results[0].latency < 0.1


class TestFailover:
    def test_fig14_failover_shape(self):
        dep = SearchDeployment(networks=3, hosts_per_network=6, seed=2)
        net = dep.network
        dep.warm_up(15.0)
        engine = dep.engines["dcA"]
        gw = Gateway(
            SimRuntime(net, engine.host),
            executor=lambda query: engine.query(query),
            workload=lambda seq: {"query": f"q{seq}"},
            rate=10.0,
        )
        gw.start()
        net.sim.call_at(35.0, dep.fail_doc_service, "dcA")
        net.sim.call_at(55.0, dep.recover_doc_service, "dcA")
        net.run(until=80.0)
        gw.stop()

        rt = dict(gw.stats.response_time_series())
        thr = dict(gw.stats.throughput_series())
        baseline = [rt[s] for s in range(20, 34) if s in rt]
        failover = [rt[s] for s in range(44, 54) if s in rt]
        recovered = [rt[s] for s in range(60, 78) if s in rt]
        assert baseline and failover and recovered
        # Normal latency well under 100 ms.
        assert max(baseline) < 0.1
        # During the failure the service survives via the remote DC at a
        # latency dominated by the 90 ms WAN RTT (paper: above 200 ms).
        assert min(failover) > 0.2
        # Throughput matches the arrival rate once detection completes.
        assert all(thr.get(s, 0) == 10 for s in range(46, 54))
        # Recovery brings latency straight back down.
        assert max(recovered) < 0.1
        # The dip happens only around the detection window.
        assert all(thr.get(s, 0) == 10 for s in range(20, 34))

    def test_queries_fail_without_proxies(self):
        # Same scenario but with the doc tier dead and no recovery: if the
        # remote path were broken the gateway would see errors; with
        # proxies it must keep succeeding indefinitely.
        dep = SearchDeployment(networks=3, hosts_per_network=6, seed=3)
        net = dep.network
        dep.warm_up(15.0)
        dep.fail_doc_service("dcA")
        net.run(until=30.0)  # past detection
        results = []
        dep.engines["dcA"].query("after-failure")._add_waiter(results.append)
        net.run(until=net.now + 3.0)
        assert results[0].ok
        assert results[0].latency > 0.15  # via dcB


class TestDeploymentValidation:
    def test_too_few_hosts_rejected(self):
        with pytest.raises(ValueError):
            SearchDeployment(networks=1, hosts_per_network=3)


class TestQueryFailurePaths:
    def test_index_tier_failure_without_remote_fails_query(self):
        """With no proxies configured (single DC), losing the whole index
        tier makes queries fail with an index error."""
        from repro.apps.search import QueryEngine, SearchCluster
        from repro.core import HierarchicalNode
        from repro.net import Network
        from repro.net.builders import build_switched_cluster
        from repro.protocols import deploy

        w = SearchWorkload(index_partitions=1, doc_partitions=1, docs_per_query=1)
        topo, hosts = build_switched_cluster(1, 6)
        net = Network(topo, seed=31)
        nodes = deploy(HierarchicalNode, net, hosts)
        cluster = SearchCluster(net, nodes, index_hosts=hosts[1:2], doc_hosts=hosts[2:3], workload=w)
        cluster.deploy()
        engine = QueryEngine(SimRuntime(net, hosts[5]), nodes[hosts[5]], w, request_timeout=0.5)
        net.run(until=12.0)
        cluster.fail_service_hosts(hosts[1:2])  # index gone
        net.run(until=25.0)  # membership purges it
        results = []
        engine.query("q")._add_waiter(results.append)
        net.run(until=net.now + 5.0)
        assert not results[0].ok
        assert results[0].error.startswith("index:")

    def test_doc_tier_failure_without_remote_fails_query(self):
        from repro.apps.search import QueryEngine, SearchCluster
        from repro.core import HierarchicalNode
        from repro.net import Network
        from repro.net.builders import build_switched_cluster
        from repro.protocols import deploy

        w = SearchWorkload(index_partitions=1, doc_partitions=1, docs_per_query=1)
        topo, hosts = build_switched_cluster(1, 6)
        net = Network(topo, seed=32)
        nodes = deploy(HierarchicalNode, net, hosts)
        cluster = SearchCluster(net, nodes, index_hosts=hosts[1:2], doc_hosts=hosts[2:3], workload=w)
        cluster.deploy()
        engine = QueryEngine(SimRuntime(net, hosts[5]), nodes[hosts[5]], w, request_timeout=0.5)
        net.run(until=12.0)
        cluster.fail_service_hosts(hosts[2:3])  # doc tier gone
        net.run(until=25.0)
        results = []
        engine.query("q")._add_waiter(results.append)
        net.run(until=net.now + 5.0)
        assert not results[0].ok
        assert results[0].error.startswith("doc:")

    def test_recovered_tier_serves_again(self):
        from repro.apps.search import QueryEngine, SearchCluster
        from repro.core import HierarchicalNode
        from repro.net import Network
        from repro.net.builders import build_switched_cluster
        from repro.protocols import deploy

        w = SearchWorkload(index_partitions=1, doc_partitions=1, docs_per_query=1)
        topo, hosts = build_switched_cluster(1, 6)
        net = Network(topo, seed=33)
        nodes = deploy(HierarchicalNode, net, hosts)
        cluster = SearchCluster(net, nodes, index_hosts=hosts[1:2], doc_hosts=hosts[2:3], workload=w)
        cluster.deploy()
        engine = QueryEngine(SimRuntime(net, hosts[5]), nodes[hosts[5]], w)
        net.run(until=12.0)
        cluster.fail_service_hosts(hosts[2:3])
        net.run(until=25.0)
        cluster.recover_service_hosts(hosts[2:3])
        net.run(until=40.0)
        results = []
        engine.query("after recovery")._add_waiter(results.append)
        net.run(until=net.now + 3.0)
        assert results[0].ok
