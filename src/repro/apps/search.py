"""The prototype document search service (paper Fig. 1).

A query enters through a protocol gateway, which

1. contacts an **index server** partition to retrieve the identifications
   of documents relevant to the query, then
2. contacts the **document server** partitions that translate those
   identifications into human-readable descriptions, and
3. compiles the final result.

Index and document data are partitioned and replicated; replicas are
discovered through the membership directory and balanced with random
polling.  For the Fig. 14 experiment the same engine runs in two data
centers: when the document-retrieval service fails in one, gateways reach
the other data center through the membership proxies.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.consumer import ConsumerModule, InvocationResult
from repro.cluster.loadbalance import LoadBalancer, RandomPolling
from repro.cluster.provider import ProviderModule
from repro.cluster.service import ServiceSpec
from repro.core.node import HierarchicalNode
from repro.core.proxy import MembershipProxy, install_proxy_forwarding
from repro.net.builders import build_two_datacenters
from repro.net.network import Network
from repro.protocols.base import deploy
from repro.sim import Event

__all__ = ["SearchWorkload", "SearchCluster", "SearchDeployment", "QueryResult"]

INDEX_SERVICE = "index"
DOC_SERVICE = "doc"


@dataclass(frozen=True)
class SearchWorkload:
    """Shape of the search service and its queries.

    ``docs_per_query`` document-server calls follow each index call
    (sequentially, like the paper's gateway workflow stepping through the
    partitions holding the result set).
    """

    index_partitions: int = 2
    doc_partitions: int = 3
    docs_per_query: int = 2
    index_service_time: float = 0.030
    doc_service_time: float = 0.010

    def index_partition(self, query: str) -> int:
        digest = hashlib.sha256(query.encode()).digest()
        return digest[0] % self.index_partitions

    def doc_partitions_for(self, query: str) -> List[int]:
        digest = hashlib.sha256(query.encode()).digest()
        count = min(self.docs_per_query, self.doc_partitions)
        start = digest[1] % self.doc_partitions
        return [(start + i) % self.doc_partitions for i in range(count)]


@dataclass(frozen=True)
class QueryResult:
    """Final compiled result of one search query (gateway step 4)."""

    ok: bool
    latency: float
    value: Optional[Dict[str, Any]]
    error: Optional[str]


def _index_handler(partition: int, data: Any) -> Dict[str, Any]:
    """Synthetic index lookup: deterministic doc ids for the query."""
    query = data["query"]
    digest = hashlib.sha256(f"{partition}:{query}".encode()).hexdigest()
    return {"doc_ids": [f"{partition}-{digest[i:i + 4]}" for i in range(0, 12, 4)]}


def _doc_handler(partition: int, data: Any) -> Dict[str, Any]:
    """Synthetic description fetch for a list of doc ids."""
    return {
        "descriptions": {doc_id: f"desc({doc_id})@p{partition}" for doc_id in data["doc_ids"]}
    }


class QueryEngine:
    """Per-gateway query orchestration (paper Fig. 1 steps 1-4)."""

    def __init__(
        self,
        network: Network,
        host: str,
        member_node: HierarchicalNode,
        workload: SearchWorkload,
        balancer: Optional[LoadBalancer] = None,
        proxy_addr: Optional[str] = None,
        request_timeout: float = 1.0,
    ) -> None:
        self.network = network
        self.host = host
        self.workload = workload
        self.consumer = ConsumerModule(
            network,
            host,
            member_node.directory,
            balancer=balancer if balancer is not None else RandomPolling(d=2),
            request_timeout=request_timeout,
            retries=3,
            blacklist_ttl=15.0,
        )
        self.consumer.start()
        if proxy_addr is not None:
            install_proxy_forwarding(self.consumer, proxy_addr)

    def query(self, query: str) -> Event:
        """Run one search query; resolves to a :class:`QueryResult`."""
        completion = Event(self.network.sim)
        started = self.network.now
        state: Dict[str, Any] = {"descriptions": {}}

        def fail(error: str) -> None:
            completion.succeed(
                QueryResult(False, self.network.now - started, None, error)
            )

        def on_index(result: InvocationResult) -> None:
            if not result.ok:
                fail(f"index:{result.error}")
                return
            state["doc_ids"] = result.value["doc_ids"]
            doc_parts = self.workload.doc_partitions_for(query)
            step_docs(doc_parts, 0)

        def step_docs(parts: List[int], idx: int) -> None:
            if idx >= len(parts):
                completion.succeed(
                    QueryResult(
                        True,
                        self.network.now - started,
                        {"query": query, "descriptions": dict(state["descriptions"])},
                        None,
                    )
                )
                return
            ev = self.consumer.invoke(
                DOC_SERVICE, parts[idx], {"doc_ids": state["doc_ids"]}
            )

            def on_doc(result: InvocationResult, parts=parts, idx=idx) -> None:
                if not result.ok:
                    fail(f"doc:{result.error}")
                    return
                state["descriptions"].update(result.value["descriptions"])
                step_docs(parts, idx + 1)

            ev._add_waiter(on_doc)

        ev = self.consumer.invoke(
            INDEX_SERVICE,
            self.workload.index_partition(query),
            {"query": query},
        )
        ev._add_waiter(on_index)
        return completion


@dataclass
class SearchCluster:
    """The search backend inside one data center.

    Index and doc providers are placed round-robin on their host lists and
    registered with the co-located membership nodes, so availability flows
    through the membership protocol like any other service.
    """

    network: Network
    nodes: Dict[str, HierarchicalNode]
    index_hosts: Sequence[str]
    doc_hosts: Sequence[str]
    workload: SearchWorkload = field(default_factory=SearchWorkload)
    providers: Dict[str, ProviderModule] = field(default_factory=dict)

    def deploy(self) -> None:
        """Start providers and publish services through membership."""
        for i, host in enumerate(self.index_hosts):
            partition = i % self.workload.index_partitions
            self._provide(
                host,
                ServiceSpec.make(
                    INDEX_SERVICE, str(partition), service_time=self.workload.index_service_time
                ),
                _index_handler,
            )
        for i, host in enumerate(self.doc_hosts):
            partition = i % self.workload.doc_partitions
            self._provide(
                host,
                ServiceSpec.make(
                    DOC_SERVICE, str(partition), service_time=self.workload.doc_service_time
                ),
                _doc_handler,
            )

    def _provide(self, host: str, spec: ServiceSpec, handler) -> None:
        provider = self.providers.get(host)
        if provider is None:
            provider = ProviderModule(self.network, host)
            provider.start()
            self.providers[host] = provider
        provider.register(spec, handler)
        self.nodes[host].register_service(spec)

    # ------------------------------------------------------------------
    # Failure injection for the Fig. 14 scenario
    # ------------------------------------------------------------------
    def fail_service_hosts(self, hosts: Sequence[str]) -> None:
        """Kill the given backend hosts (provider + membership daemon)."""
        for host in hosts:
            provider = self.providers.get(host)
            if provider is not None:
                provider.stop()
            self.nodes[host].stop()
            self.network.crash_host(host)

    def recover_service_hosts(self, hosts: Sequence[str]) -> None:
        for host in hosts:
            self.network.recover_host(host)
            self.nodes[host].start()
            provider = self.providers.get(host)
            if provider is not None:
                provider.start()


class SearchDeployment:
    """A complete two-data-center search deployment (Fig. 14 scenario).

    Layout per data center (``hosts_per_network`` hosts x ``networks``):
    the first two hosts run membership proxies, the next ones run index
    and doc servers, and the last host runs the protocol gateway.
    """

    VIP = {"dcA": "vip-dcA", "dcB": "vip-dcB"}

    def __init__(
        self,
        networks: int = 2,
        hosts_per_network: int = 5,
        seed: int = 0,
        workload: Optional[SearchWorkload] = None,
        index_replicas: int = 2,
        doc_replicas: int = 3,
        gateway_timeout: float = 1.0,
    ) -> None:
        self.workload = workload if workload is not None else SearchWorkload()
        topo, dca, dcb = build_two_datacenters(networks, hosts_per_network)
        self.network = Network(topo, seed=seed)
        self.hosts = {"dcA": dca, "dcB": dcb}
        self.nodes: Dict[str, HierarchicalNode] = {}
        self.clusters: Dict[str, SearchCluster] = {}
        self.proxies: List[MembershipProxy] = []
        self.engines: Dict[str, QueryEngine] = {}

        for dc, hostlist in self.hosts.items():
            self.nodes.update(deploy(HierarchicalNode, self.network, hostlist))
        for dc, hostlist in self.hosts.items():
            n_index = self.workload.index_partitions * index_replicas
            n_doc = self.workload.doc_partitions * doc_replicas
            needed = 2 + n_index + n_doc + 1
            if len(hostlist) < needed:
                raise ValueError(
                    f"{dc} needs at least {needed} hosts "
                    f"(2 proxies + {n_index} index + {n_doc} doc + 1 gateway)"
                )
            proxy_hosts = hostlist[:2]
            index_hosts = hostlist[2 : 2 + n_index]
            doc_hosts = hostlist[2 + n_index : 2 + n_index + n_doc]
            gateway_host = hostlist[-1]
            cluster = SearchCluster(
                self.network, self.nodes, index_hosts, doc_hosts, self.workload
            )
            cluster.deploy()
            self.clusters[dc] = cluster
            for h in proxy_hosts:
                proxy = MembershipProxy(
                    self.network, h, dc, self.VIP[dc], self.VIP, self.nodes[h]
                )
                proxy.start()
                self.proxies.append(proxy)
            self.engines[dc] = QueryEngine(
                self.network,
                gateway_host,
                self.nodes[gateway_host],
                self.workload,
                proxy_addr=self.VIP[dc],
                request_timeout=gateway_timeout,
            )

    # ------------------------------------------------------------------
    def doc_hosts(self, dc: str) -> List[str]:
        return list(self.clusters[dc].doc_hosts)

    def fail_doc_service(self, dc: str) -> None:
        """The paper's t=20 s event: the retrieval service in one DC dies."""
        self.clusters[dc].fail_service_hosts(self.doc_hosts(dc))

    def recover_doc_service(self, dc: str) -> None:
        self.clusters[dc].recover_service_hosts(self.doc_hosts(dc))

    def warm_up(self, duration: float = 12.0) -> None:
        """Let membership and proxies converge before measuring."""
        self.network.run(until=self.network.now + duration)
