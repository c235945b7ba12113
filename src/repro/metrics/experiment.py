"""Scripted comparative experiments over the three membership schemes.

:class:`FailureExperiment` reproduces the Section 6 methodology on any of
the schemes: build the testbed topology (k networks x m hosts behind one
router), start the protocol everywhere, warm up, optionally measure a
steady-state bandwidth window, kill one node, and extract detection /
convergence times from the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type

from repro.cluster.failures import FailureSchedule
from repro.core.config import HierarchicalConfig
from repro.core.node import HierarchicalNode
from repro.metrics.collectors import (
    BandwidthStats,
    bandwidth_stats,
    convergence_time,
    detection_time,
)
from repro.net.builders import build_switched_cluster
from repro.net.network import Network
from repro.protocols.alltoall import AllToAllNode
from repro.protocols.base import MembershipNode, ProtocolConfig, deploy
from repro.protocols.gossip import GossipNode

__all__ = ["SCHEMES", "make_scheme_cluster", "FailureExperiment", "FailureResult"]

#: scheme name -> node class, as compared in the paper's Section 6.
SCHEMES: Dict[str, Type[MembershipNode]] = {
    "all-to-all": AllToAllNode,
    "gossip": GossipNode,
    "hierarchical": HierarchicalNode,
}


def make_scheme_cluster(
    scheme: str,
    networks: int,
    hosts_per_network: int,
    seed: int = 0,
    loss_rate: float = 0.0,
    config: Optional[ProtocolConfig] = None,
) -> Tuple[Network, List[str], Dict[str, MembershipNode]]:
    """Deploy one scheme on the paper's testbed shape.

    The evaluation's emulation maps each multicast channel to one network
    of 20 hosts ("Each multicast channel hosts 20 nodes... five networks
    for 100 nodes", Section 6.2).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; pick one of {sorted(SCHEMES)}")
    topo, hosts = build_switched_cluster(networks, hosts_per_network)
    net = Network(topo, seed=seed, loss_rate=loss_rate)
    cls = SCHEMES[scheme]
    kwargs: Dict[str, object] = {}
    if scheme == "gossip":
        kwargs["seeds"] = hosts
    if config is None and scheme == "hierarchical":
        config = HierarchicalConfig()
    nodes = deploy(cls, net, hosts, config=config, **kwargs)
    return net, hosts, nodes


@dataclass(frozen=True)
class FailureResult:
    """Outcome of one kill-one-node run."""

    scheme: str
    num_nodes: int
    detection: Optional[float]
    convergence: Optional[float]
    bandwidth: Optional[BandwidthStats]
    victim: str
    observers: int


@dataclass
class FailureExperiment:
    """One run: warm up, (measure bandwidth), kill a node, observe.

    Parameters mirror Section 6.2: 1 Hz heartbeats, MAX_LOSS 5, 228-byte
    member descriptions, 20 nodes per network, no packet loss.  A
    ``bandwidth_window`` of 0 skips the bandwidth measurement.
    ``kill_leader`` picks a group leader as the victim; only the
    hierarchical scheme has leaders, so any other scheme refuses it.
    """

    scheme: str
    networks: int
    hosts_per_network: int
    seed: int = 0
    warmup: float = 20.0
    bandwidth_window: float = 10.0
    observe: float = 40.0
    config: Optional[ProtocolConfig] = None
    kill_leader: bool = False

    def __post_init__(self) -> None:
        if self.kill_leader and self.scheme != "hierarchical":
            raise ValueError(f"kill_leader: the {self.scheme} scheme has no leaders")

    def run(self) -> FailureResult:
        net, hosts, nodes = make_scheme_cluster(
            self.scheme,
            self.networks,
            self.hosts_per_network,
            seed=self.seed,
            config=self.config,
        )
        net.run(until=self.warmup)
        stats: Optional[BandwidthStats] = None
        if self.bandwidth_window:
            net.meter.reset()
            net.run(until=net.now + self.bandwidth_window)
            stats = bandwidth_stats(net.meter, self.bandwidth_window, len(hosts))

        victim = self._pick_victim(hosts, nodes)
        sched = FailureSchedule(net)
        sched.register_stack(victim, nodes[victim])
        kill_time = net.now
        sched.crash_node_at(kill_time, victim)
        net.run(until=kill_time + self.observe)

        survivors = [h for h in hosts if h != victim]
        return FailureResult(
            scheme=self.scheme,
            num_nodes=len(hosts),
            detection=detection_time(net.trace, victim, kill_time),
            convergence=convergence_time(
                net.trace, victim, kill_time, expected_observers=survivors
            ),
            bandwidth=stats,
            victim=victim,
            observers=len(
                {
                    r.node
                    for r in net.trace.records(kind="member_down", since=kill_time)
                    if r.data.get("target") == victim
                }
            ),
        )

    def _pick_victim(self, hosts: List[str], nodes: Dict[str, MembershipNode]) -> str:
        """Middle-of-a-network host; optionally a group leader instead.

        The paper kills an ordinary node; for the hierarchical scheme we
        additionally avoid group leaders unless ``kill_leader`` is set (a
        leader death exercises failover, a different scenario).
        """
        candidates = list(hosts)
        if self.scheme == "hierarchical":
            leaders = {
                h for h, n in nodes.items() if isinstance(n, HierarchicalNode) and n.levels() != [0]
            }
            pool = [h for h in candidates if (h in leaders) == self.kill_leader]
            if pool:
                candidates = pool
        return candidates[len(candidates) // 2]
