"""Topology partitioning for the sharded kernel.

The unit of partitioning is the **L2 segment** (a connected component of
the device graph with routers and WAN edges removed — exactly the
paper's level-0 group domain, :meth:`Topology.segments`).  A segment is
never split across shards: all intra-segment traffic is therefore local
to one shard and can be evaluated at send time, while *every*
cross-segment delivery crosses a router or WAN pinch and is bounded
below by :meth:`Topology.cross_segment_lookahead` — the barrier window
of the conservative synchronisation scheme.

Segments are assigned round-robin in segment-id order, so the map is a
pure function of the topology and the shard count.  ``shards`` may
exceed the segment count; the surplus shards simply own nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.net.topology import Topology

__all__ = ["ShardMap"]


@dataclass(frozen=True)
class ShardMap:
    """Deterministic host/segment → shard assignment.

    Attributes
    ----------
    shards:
        Number of shards the deployment is split into (≥ 1).
    segment_shard:
        ``segment id -> shard id`` (round-robin).
    host_shard:
        ``host -> shard id`` derived through the host's segment.
    host_rank:
        ``host -> global host index`` in topology insertion order — the
        rank used to key deployment-time events identically in every
        shard count.
    """

    shards: int
    segment_shard: Tuple[int, ...]
    host_shard: Dict[str, int]
    host_rank: Dict[str, int]

    @classmethod
    def build(cls, topo: Topology, shards: int) -> "ShardMap":
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        segments = topo.segments()
        segment_shard = tuple(seg % shards for seg in range(len(segments)))
        host_shard: Dict[str, int] = {}
        host_rank: Dict[str, int] = {}
        rank = 0
        for seg_id, hosts in enumerate(segments):
            for host in hosts:
                host_shard[host] = segment_shard[seg_id]
        for host in topo.hosts():
            host_rank[host] = rank
            rank += 1
        return cls(shards, segment_shard, host_shard, host_rank)

    def owns(self, shard_id: int, host: str) -> bool:
        return self.host_shard.get(host) == shard_id

    def local_hosts(self, shard_id: int) -> List[str]:
        """Hosts owned by ``shard_id``, in global rank order."""
        ranked = sorted(self.host_rank, key=self.host_rank.__getitem__)
        return [h for h in ranked if self.host_shard[h] == shard_id]

    def is_boundary(self, topo: Topology, a: str, b: str) -> bool:
        """Classify a link as shard-boundary (cross-segment) or internal.

        A link is a boundary link when traffic over it can connect two
        different segments: either endpoint is a router, or the edge is a
        WAN edge.  Host/switch links inside one segment are internal —
        packets over them never enter the barrier exchange.
        """
        from repro.net.topology import NodeKind

        if topo.is_wan_edge(a, b):
            return True
        return topo.kind(a) is NodeKind.ROUTER or topo.kind(b) is NodeKind.ROUTER
