#!/usr/bin/env python
"""A single-data-center search engine on top of the membership service.

Reproduces the paper's Fig. 1 workflow: protocol gateway -> partitioned
index servers -> partitioned document servers, with replica selection by
random polling over the membership directory.  Shows the latency effect of
load: a burst of queries spreads across replicas thanks to the load polls.

Run:  python examples/search_cluster.py
"""

from repro.apps.search import QueryEngine, SearchCluster, SearchWorkload
from repro.core import HierarchicalNode
from repro.net import Network
from repro.net.builders import build_switched_cluster
from repro.protocols import deploy
from repro.runtime import SimRuntime


def main() -> None:
    workload = SearchWorkload(index_partitions=2, doc_partitions=3, docs_per_query=2)
    topo, hosts = build_switched_cluster(2, 10)
    net = Network(topo, seed=7)
    nodes = deploy(HierarchicalNode, net, hosts)

    # 4 index replicas (2 partitions x 2) and 6 doc replicas (3 x 2).
    cluster = SearchCluster(
        net,
        nodes,
        index_hosts=hosts[1:5],
        doc_hosts=hosts[5:11],
        workload=workload,
    )
    cluster.deploy()
    gateway = QueryEngine(SimRuntime(net, hosts[-1]), nodes[hosts[-1]], workload)

    net.run(until=12.0)  # membership warm-up

    # A single query.
    results = []
    gateway.query("membership protocols").\
        _add_waiter(results.append)
    net.run(until=net.now + 1.0)
    res = results[0]
    print(f"query ok={res.ok} latency={1000 * res.latency:.1f}ms")
    for doc_id, desc in sorted(res.value["descriptions"].items())[:3]:
        print(f"  {doc_id}: {desc}")

    # A burst: 50 queries at once — random polling spreads them over the
    # replicas, so p99 stays close to the service time instead of queueing
    # on one server.
    burst = []
    for i in range(50):
        gateway.query(f"burst query {i}")._add_waiter(burst.append)
    net.run(until=net.now + 5.0)
    lat = sorted(r.latency for r in burst)
    print(f"\nburst of 50: ok={sum(r.ok for r in burst)}/50")
    print(
        f"latency p50={1000 * lat[25]:.1f}ms  p99={1000 * lat[-1]:.1f}ms "
        f"(index svc time {1000 * workload.index_service_time:.0f}ms)"
    )

    # Who served what?  The provider stats show the load balancing.
    served = {h: p.served for h, p in cluster.providers.items()}
    print("requests served per backend:", dict(sorted(served.items())))


if __name__ == "__main__":
    main()
