"""Cluster network topology with TTL-hop semantics.

The model distinguishes three device kinds:

* **hosts** — run protocol stacks; the only senders/receivers;
* **switches** — layer-2 devices; forwarding through them does *not*
  decrement an IP TTL;
* **routers** — layer-3 devices; each traversal costs one TTL unit.

The paper (Section 2) uses the TTL field to scope multicast: a packet sent
with TTL 1 reaches exactly the sender's L2 segment, TTL 2 additionally
crosses one router, and so on.  We therefore define

``ttl_distance(a, b) = 1 + (minimum number of routers on an a→b path)``

choosing, among shortest-latency paths, the one crossing fewest routers is
unnecessary: we minimise router crossings directly, since that is what TTL
scoping keys on, and use the same path's latency for delivery timing.

Hosts may span multiple **data centers** (``dc`` attribute).  Multicast never
crosses a DC boundary (the paper notes multicast is generally unavailable
over VPN/Internet); unicast does, over WAN edges.

Failure model: hosts, switches and routers can be marked down.  A downed
device forwards nothing, so a downed switch partitions its segment exactly
as the paper's "network partition failures (e.g., switch failures)".
"""

from __future__ import annotations

import heapq
import weakref
from enum import Enum
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["NodeKind", "Topology", "UNREACHABLE"]

#: Sentinel TTL distance for unreachable pairs (partition or inter-DC).
UNREACHABLE = float("inf")

_NOPE: Tuple[float, float] = (UNREACHABLE, UNREACHABLE)
#: Shared empty base maps for cut-off sources (avoid per-source allocs).
_EMPTY_MC: Dict[str, Tuple[float, float]] = {}
_EMPTY_UC: Dict[str, float] = {}


class NodeKind(str, Enum):
    """Device classes in the topology graph."""

    HOST = "host"
    SWITCH = "switch"
    ROUTER = "router"


class Topology:
    """Mutable device graph with cached TTL-distance/latency queries.

    Edges carry a one-way ``latency`` in seconds.  Distance queries run a
    Dijkstra minimising ``(routers crossed, latency)`` lexicographically so
    TTL scoping is exact and ties are broken by the fastest path.  Results
    are cached per attachment point and kept under two counters:
    :attr:`version` moves on every mutation; :attr:`route_version` moves
    on every mutation *except* the up/down flip of a simple-leaf host (a
    host with one link to a switch or router — every host of the paper's
    testbeds).  No path runs through such a host, so its flip changes only
    whether it is reached, which every pair query reads live; the only
    cache entries it drops are its own.  Callers that key a cache on
    ``route_version`` learn of those flips from :meth:`watch_leaf_hosts`.
    """

    def __init__(self) -> None:
        self._kind: Dict[str, NodeKind] = {}
        self._up: Dict[str, bool] = {}
        self._dc: Dict[str, str] = {}
        self._adj: Dict[str, Dict[str, float]] = {}
        self._wan_edges: set[Tuple[str, str]] = set()
        self._version = 0
        self._route_version = 0
        # Bound methods called with the host after each leaf flip.
        self._leaf_watchers: List[weakref.WeakMethod[Callable[[str], None]]] = []
        # --- segment-compressed distance engine (see _rebuild_structure) ---
        # Structural layout (who is a simple leaf, the infra adjacency,
        # segment partition) changes only on add/remove, not on up/down.
        self._struct_version = -1
        self._leaf: Dict[str, Tuple[str, float]] = {}
        self._infra_adj: Dict[str, Dict[str, float]] = {}
        # (seed device, entry_routers, entry_lat) -> {infra node -> (r, lat)}
        self._mc_seeded: Dict[Tuple[str, float, float], Dict[str, Tuple[float, float]]] = {}
        # (seed device, entry_lat) -> {infra node -> lat}
        self._uc_seeded: Dict[Tuple[str, float], Dict[str, float]] = {}
        # src host -> its (shared) seeded map; {} when src is cut off.
        self._mc_base: Dict[str, Dict[str, Tuple[float, float]]] = {}
        self._uc_base: Dict[str, Dict[str, float]] = {}
        self._segments_cache: Optional[List[List[str]]] = None
        self._segment_of: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, name: str, kind: NodeKind, dc: str = "dc0") -> None:
        """Add a device.  Names must be unique across kinds."""
        if name in self._kind:
            raise ValueError(f"duplicate device {name!r}")
        self._kind[name] = kind
        self._up[name] = True
        self._dc[name] = dc
        self._adj[name] = {}
        self._invalidate()

    def add_host(self, name: str, dc: str = "dc0") -> None:
        self.add_node(name, NodeKind.HOST, dc)

    def add_switch(self, name: str, dc: str = "dc0") -> None:
        self.add_node(name, NodeKind.SWITCH, dc)

    def add_router(self, name: str, dc: str = "dc0") -> None:
        self.add_node(name, NodeKind.ROUTER, dc)

    def add_link(self, a: str, b: str, latency: float = 0.0001, wan: bool = False) -> None:
        """Connect two devices with a bidirectional link.

        ``wan=True`` marks an inter-data-center link: multicast never uses
        it, and it is typically high-latency (e.g. 45 ms one way for the
        paper's 90 ms RTT).
        """
        for name in (a, b):
            if name not in self._kind:
                raise ValueError(f"unknown device {name!r}")
        if a == b:
            raise ValueError("self-links are not allowed")
        self._adj[a][b] = latency
        self._adj[b][a] = latency
        if wan:
            self._wan_edges.add((a, b))
            self._wan_edges.add((b, a))
        self._invalidate()

    def remove_link(self, a: str, b: str) -> None:
        self._adj[a].pop(b, None)
        self._adj[b].pop(a, None)
        self._wan_edges.discard((a, b))
        self._wan_edges.discard((b, a))
        self._invalidate()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def kind(self, name: str) -> NodeKind:
        return self._kind[name]

    def dc(self, name: str) -> str:
        return self._dc[name]

    def is_up(self, name: str) -> bool:
        return self._up[name]

    def set_up(self, name: str, up: bool) -> None:
        """Mark a device up/down.  Downed devices forward nothing."""
        if name not in self._kind:
            raise ValueError(f"unknown device {name!r}")
        if self._up[name] == up:
            return
        self._up[name] = up
        if self._struct_version != self._route_version:
            self._rebuild_structure()
        if name not in self._leaf:
            self._invalidate()
            return
        # Only the maps *from* a simple leaf depend on its liveness.
        self._mc_base.pop(name, None)
        self._uc_base.pop(name, None)
        self._version += 1
        for ref in list(self._leaf_watchers):
            watcher = ref()
            if watcher is None:
                self._leaf_watchers.remove(ref)
            else:
                watcher(name)

    def watch_leaf_hosts(self, watcher: Callable[[str], None]) -> None:
        """Call ``watcher(host)`` after each up/down flip of a simple-leaf host.

        Those are the flips that move :attr:`version` but not
        :attr:`route_version`.  ``watcher`` must be a bound method; it is
        held weakly, so a dead owner drops out instead of being kept alive.
        """
        self._leaf_watchers.append(weakref.WeakMethod(watcher))

    def hosts(self, dc: Optional[str] = None) -> List[str]:
        """All host names, optionally restricted to one data center."""
        return [
            n
            for n, k in self._kind.items()
            if k is NodeKind.HOST and (dc is None or self._dc[n] == dc)
        ]

    def devices(self, kind: Optional[NodeKind] = None) -> List[str]:
        return [n for n, k in self._kind.items() if kind is None or k is kind]

    def has_device(self, name: str) -> bool:
        """O(1) existence check (``devices()`` builds a fresh list)."""
        return name in self._kind

    def is_wan_edge(self, a: str, b: str) -> bool:
        """True when ``a``/``b`` are linked by a WAN (inter-DC) edge."""
        return (a, b) in self._wan_edges

    def datacenters(self) -> List[str]:
        return sorted({self._dc[n] for n in self._kind})

    def neighbors(self, name: str) -> Iterable[str]:
        return self._adj[name].keys()

    @property
    def version(self) -> int:
        """Monotone counter bumped on every mutation (for cache layering)."""
        return self._version

    @property
    def route_version(self) -> int:
        """Monotone counter bumped on every mutation but a simple-leaf flip.

        While it holds, the answer of every pair query between two hosts
        that stayed up is unchanged.
        """
        return self._route_version

    # ------------------------------------------------------------------
    # Distance queries
    # ------------------------------------------------------------------
    def ttl_distance(self, src: str, dst: str) -> float:
        """TTL needed for a packet from ``src`` to reach ``dst``.

        ``1`` means same L2 segment; each router traversal adds one.
        Returns :data:`UNREACHABLE` if no live non-WAN path exists (WAN
        links do not carry multicast, and TTL grouping is per-DC).
        """
        return self._mc_pair(src, dst)[0]

    def latency(self, src: str, dst: str) -> float:
        """One-way latency along the TTL-minimal live path (WAN excluded)."""
        return self._mc_pair(src, dst)[1]

    def mc_route(self, src: str, dst: str) -> Tuple[float, float]:
        """``(ttl_distance, latency)`` in one lookup (multicast routing).

        The fan-out planner needs both for every candidate recipient;
        they live in the same routing cell, so the fused query halves the
        hot-path probes of a mass join.
        """
        return self._mc_pair(src, dst)

    def unicast_latency(self, src: str, dst: str) -> float:
        """One-way latency for unicast, which *may* traverse WAN links."""
        if src == dst:
            return 0.0
        return self._uc_pair(src, dst)

    def reachable(self, src: str, dst: str) -> bool:
        """True if unicast can currently get from ``src`` to ``dst``."""
        return self.unicast_latency(src, dst) != UNREACHABLE

    def hosts_within(self, src: str, ttl: int) -> List[str]:
        """Hosts (other than ``src``) within ``ttl`` of ``src``; live paths only."""
        return [h for h in self.hosts() if h != src and self._mc_pair(src, h)[0] <= ttl]

    def max_ttl_diameter(self, dc: Optional[str] = None) -> int:
        """Largest finite TTL distance between any two live hosts (per DC)."""
        best = 0
        hosts = self.hosts()
        for h in self.hosts(dc):
            if not self._up[h]:
                continue
            for other in hosts:
                if other != h:
                    d = self._mc_pair(h, other)[0]
                    if d != UNREACHABLE:
                        best = max(best, int(d))
        return best

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        self._mc_seeded.clear()
        self._uc_seeded.clear()
        self._mc_base.clear()
        self._uc_base.clear()
        self._version += 1
        self._route_version += 1

    # ------------------------------------------------------------------
    # Segment-compressed pair queries
    # ------------------------------------------------------------------
    # A "simple leaf" is a host with exactly one link, attached to a
    # non-host device.  No path ever travels *through* such a host (its
    # single edge is a dead end), so every src→dst path factors as
    # ``entry edge + infra path + exit edge``, where the infra graph is
    # the topology minus the simple leaves.  Pair queries therefore need
    # one Dijkstra per *attachment point* instead of one per host — on a
    # 10k-host router tree that is ~1k sources over a ~1.1k-node graph
    # instead of 10k sources over an 11k-node graph.
    #
    # Exactness: the infra Dijkstra is *seeded* with the entry edge's
    # cost, so latencies accumulate left-to-right along the path in the
    # same order as the full-graph Dijkstra — the returned floats are
    # bit-identical, not merely close, and the golden traces cannot
    # drift.  (IEEE addition is monotone, so seeding also preserves the
    # argmin.)  Lexicographic (routers, latency) minimisation survives
    # the factoring because both components are shifted by constants.

    def _rebuild_structure(self) -> None:
        leaf: Dict[str, Tuple[str, float]] = {}
        for name, kind in self._kind.items():
            if kind is not NodeKind.HOST:
                continue
            adj = self._adj[name]
            if len(adj) != 1:
                continue
            (att, lat), = adj.items()
            if self._kind[att] is not NodeKind.HOST:
                leaf[name] = (att, lat)
        infra: Dict[str, Dict[str, float]] = {}
        for name, adj in self._adj.items():
            if name in leaf:
                continue
            infra[name] = {n: l for n, l in adj.items() if n not in leaf}
        self._leaf = leaf
        self._infra_adj = infra
        self._segments_cache = None
        self._struct_version = self._route_version

    def _mc_from(self, seed: str, r0: float, l0: float) -> Dict[str, Tuple[float, float]]:
        """Seeded (routers, latency) Dijkstra over the infra graph, WAN excluded."""
        key = (seed, r0, l0)
        cached = self._mc_seeded.get(key)
        if cached is not None:
            return cached
        seen: Dict[str, Tuple[float, float]] = {}
        pq: List[Tuple[float, float, str]] = [(r0, l0, seed)]
        infra = self._infra_adj
        while pq:
            routers, lat, node = heapq.heappop(pq)
            if node in seen:
                continue
            seen[node] = (routers, lat)
            for nxt, edge_lat in infra[node].items():
                if nxt in seen or not self._up[nxt]:
                    continue
                if (node, nxt) in self._wan_edges:
                    continue
                cost = routers + (1.0 if self._kind[nxt] is NodeKind.ROUTER else 0.0)
                heapq.heappush(pq, (cost, lat + edge_lat, nxt))
        self._mc_seeded[key] = seen
        return seen

    def _uc_from(self, seed: str, l0: float) -> Dict[str, float]:
        """Seeded min-latency Dijkstra over the infra graph, WAN allowed."""
        key = (seed, l0)
        cached = self._uc_seeded.get(key)
        if cached is not None:
            return cached
        seen: Dict[str, float] = {}
        pq: List[Tuple[float, str]] = [(l0, seed)]
        infra = self._infra_adj
        while pq:
            lat, node = heapq.heappop(pq)
            if node in seen:
                continue
            seen[node] = lat
            for nxt, edge_lat in infra[node].items():
                if nxt not in seen and self._up[nxt]:
                    heapq.heappush(pq, (lat + edge_lat, nxt))
        self._uc_seeded[key] = seen
        return seen

    def _mc_base_for(self, src: str) -> Dict[str, Tuple[float, float]]:
        """Seeded infra map serving all multicast queries from ``src``."""
        if not self._up.get(src, False):
            return _EMPTY_MC
        entry = self._leaf.get(src)
        if entry is None:
            if src not in self._infra_adj:
                return _EMPTY_MC
            return self._mc_from(src, 0.0, 0.0)
        att, l0 = entry
        if not self._up[att] or (src, att) in self._wan_edges:
            return _EMPTY_MC
        return self._mc_from(att, 1.0 if self._kind[att] is NodeKind.ROUTER else 0.0, l0)

    def _uc_base_for(self, src: str) -> Dict[str, float]:
        if not self._up.get(src, False):
            return _EMPTY_UC
        entry = self._leaf.get(src)
        if entry is None:
            if src not in self._infra_adj:
                return _EMPTY_UC
            return self._uc_from(src, 0.0)
        att, l0 = entry
        if not self._up[att]:
            return _EMPTY_UC
        return self._uc_from(att, l0)

    def _mc_pair(self, src: str, dst: str) -> Tuple[float, float]:
        if src == dst:
            return (0.0, 0.0) if self._up.get(src, False) else _NOPE
        if self._struct_version != self._route_version:
            self._rebuild_structure()
        base = self._mc_base.get(src)
        if base is None:
            base = self._mc_base[src] = self._mc_base_for(src)
        leaf_dst = self._leaf.get(dst)
        if leaf_dst is not None:
            att_d, l_exit = leaf_dst
            cell = base.get(att_d)
            if cell is None or not self._up[dst]:
                return _NOPE
            wan = self._wan_edges
            if wan and (att_d, dst) in wan:
                return _NOPE
            return (cell[0] + 1.0, cell[1] + l_exit)
        cell = base.get(dst)
        # Infra cells were computed against current up state (a non-leaf
        # flip moves route_version and clears them), so only the
        # host-kind filter remains.
        if cell is None or self._kind[dst] is not NodeKind.HOST:
            return _NOPE
        return (cell[0] + 1.0, cell[1])

    def _uc_pair(self, src: str, dst: str) -> float:
        if self._struct_version != self._route_version:
            self._rebuild_structure()
        base = self._uc_base.get(src)
        if base is None:
            base = self._uc_base[src] = self._uc_base_for(src)
        leaf_dst = self._leaf.get(dst)
        if leaf_dst is not None:
            att_d, l_exit = leaf_dst
            lat = base.get(att_d)
            if lat is None or not self._up[dst]:
                return UNREACHABLE
            return lat + l_exit
        lat = base.get(dst)
        if lat is None or self._kind[dst] is not NodeKind.HOST:
            return UNREACHABLE
        return lat

    # ------------------------------------------------------------------
    # Segment partition (shard map)
    # ------------------------------------------------------------------
    def segments(self) -> List[List[str]]:
        """Hosts grouped by L2 segment, in deterministic insertion order.

        A segment is a connected component of the graph with routers and
        WAN edges removed — the paper's level-0 group domain.  Up/down
        state is ignored: the partition is structural, so a shard map
        derived from it stays valid across failures.
        """
        if self._struct_version != self._route_version:
            self._rebuild_structure()
        if self._segments_cache is not None:
            return self._segments_cache
        comp: Dict[str, int] = {}
        next_id = 0
        for start in self._kind:
            if start in comp or self._kind[start] is NodeKind.ROUTER:
                continue
            comp[start] = next_id
            stack = [start]
            while stack:
                node = stack.pop()
                for nxt in self._adj[node]:
                    if (
                        nxt in comp
                        or self._kind[nxt] is NodeKind.ROUTER
                        or (node, nxt) in self._wan_edges
                    ):
                        continue
                    comp[nxt] = next_id
                    stack.append(nxt)
            next_id += 1
        groups: Dict[int, List[str]] = {}
        seg_of: Dict[str, int] = {}
        for name, kind in self._kind.items():
            if kind is NodeKind.HOST:
                groups.setdefault(comp[name], []).append(name)
        # Re-number densely in first-host insertion order so segment ids
        # are stable and host-only (host-free components drop out).
        ordered = list(groups.items())
        result = []
        for new_id, (_cid, hosts) in enumerate(ordered):
            for h in hosts:
                seg_of[h] = new_id
            result.append(hosts)
        self._segments_cache = result
        self._segment_of = seg_of
        return result

    def segment_of(self, host: str) -> int:
        """Segment id of ``host`` (see :meth:`segments`)."""
        self.segments()
        return self._segment_of[host]

    def cross_segment_lookahead(self) -> float:
        """Lower bound on any cross-segment delivery latency.

        Every cross-segment path crosses a router or a WAN edge, so its
        latency is at least the cheapest such pinch: for each router, the
        sum of its two smallest incident edge latencies; for WAN, the
        edge latency itself.  Downing devices only removes paths, so the
        bound holds in every dynamic state — it is the conservative
        lookahead for the sharded simulation's barrier windows.
        Returns ``inf`` when nothing can cross (single segment).
        """
        best = UNREACHABLE
        for name, kind in self._kind.items():
            if kind is not NodeKind.ROUTER:
                continue
            lats = sorted(self._adj[name].values())
            if len(lats) >= 2:
                best = min(best, lats[0] + lats[1])
            elif len(lats) == 1:
                best = min(best, lats[0])
        for (a, b) in self._wan_edges:
            best = min(best, self._adj[a][b])
        return best
