"""The windowed barrier loop of the sharded kernel.

:class:`ShardRun` deploys one :class:`~repro.shard.scenario.ShardScenario`
across *N* shards and advances them in conservative time windows of width
``L = Topology.cross_segment_lookahead()`` — the minimum latency of any
cross-segment path, so a packet sent inside window *k* can never be
delivered before window *k+1* begins.  The loop per window:

1. every shard drains its local events with ``run_window(end)``
   (strictly-below-``end`` semantics: events at exactly a barrier time
   run *after* the barrier's control ops);
2. outboxes (cross-segment :class:`Descriptor`\\ s) are collected and
   merged into one stream sorted by ``(t_send, key)``;
3. control operations due at the barrier are applied, in spec order,
   under root context ``(-1, op_index)``;
4. every shard evaluates the merged stream against its local receivers,
   scheduling deliveries under keys ``descriptor.key + (rank, copy)``.

Because steps 2–4 are pure functions of shard-count-invariant inputs,
the merged trace — per-shard records sorted by their
:class:`~repro.shard.netshard.ShardTrace` keys — is byte-identical for
every shard count, including ``shards=1``.

When a barrier has no work (no pending event anywhere, outboxes empty),
the loop jumps straight to the next control op / end time instead of
ticking empty windows; with a single segment (``L = inf``) it degrades
to plain sequential runs between ops.

:class:`ShardWorld` — one shard's fully-built universe — is the unit the
multiprocessing runner (:mod:`repro.shard.workers`) reuses verbatim, so
the in-process and spawned paths cannot drift apart on deployment or
control-op semantics.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import HierarchicalConfig
from repro.metrics.experiment import SCHEMES
from repro.obs.registry import MetricsRegistry
from repro.obs.wiring import enable_observability
from repro.protocols.base import MembershipNode
from repro.shard.netshard import Descriptor, ShardNetwork
from repro.shard.partition import ShardMap
from repro.shard.scenario import ShardScenario

__all__ = [
    "ShardResult",
    "ShardRun",
    "ShardWorld",
    "next_barrier_end",
    "run_scenario",
    "trace_hash",
]

#: A merged trace: plain tuples, picklable, hashable via :func:`trace_hash`.
TraceList = List[Tuple[float, str, Optional[str], Dict[str, Any]]]

#: A resolved control op: (time, spec_index, op_name, host).
Op = Tuple[float, int, str, str]

#: A trace record paired with its deterministic merge key.
KeyedRecord = Tuple[
    Tuple[float, int, Tuple[int, ...], int],
    Tuple[float, str, Optional[str], Dict[str, Any]],
]


def trace_hash(trace: TraceList) -> str:
    """Golden-trace digest (same shape as the determinism-guard suite)."""
    return hashlib.sha256(repr(trace).encode()).hexdigest()


def resolve_ops(spec: ShardScenario, hosts: List[str]) -> List[Op]:
    """The spec's op timeline with host indices resolved, sorted stably."""
    ops: List[Op] = [
        (t, i, op, hosts[arg]) for i, (t, op, arg) in enumerate(spec.ops)
    ]
    ops.sort(key=lambda o: (o[0], o[1]))
    return ops


def _window_index(time: float, lookahead: float) -> int:
    """Largest k with ``k*L <= time`` (float-drift safe)."""
    k = int(time / lookahead)
    while k * lookahead > time:
        k -= 1
    while (k + 1) * lookahead <= time:
        k += 1
    return k


def next_barrier_end(
    t: float,
    until: float,
    t_next: Optional[float],
    lookahead: float,
    next_op: Optional[float],
) -> float:
    """The next barrier time in ``(t, until]``.

    Normally the end of the lookahead window holding the earliest
    pending event anywhere (jumping over empty windows — safe because
    outboxes are empty between barriers, so nothing can be scheduled
    before ``t_next + lookahead``); clamped by the next control op and
    ``until``.  Shared by the in-process and multiprocessing drivers so
    both cut identical barriers.
    """
    if t_next is None or math.isinf(lookahead):
        end = until
    else:
        base = t_next if t_next > t else t
        end = (_window_index(base, lookahead) + 1) * lookahead
        if end > until:
            end = until
    if next_op is not None and next_op < end:
        end = next_op
    return end


class ShardWorld:
    """One shard's fully-built universe: network, nodes, op semantics.

    Both drivers build one per shard — the in-process runner passes the
    shared topology replica in; a spawned worker rebuilds it from the
    (picklable) spec.  All state mutation driven from *outside* the
    event loop goes through :meth:`apply_op`, keyed by the op's spec
    index, so control timelines replay identically everywhere.
    """

    def __init__(
        self,
        spec: ShardScenario,
        shards: int,
        shard_id: int,
        topo: Optional[Any] = None,
        hosts: Optional[List[str]] = None,
        observe: bool = False,
    ) -> None:
        if topo is None or hosts is None:
            topo, hosts = spec.build_topology()
        self.spec = spec
        self.shard_id = shard_id
        self.topo = topo
        self.hosts: List[str] = hosts
        self.smap = ShardMap.build(topo, shards)
        self.net = ShardNetwork(
            topo,
            self.smap,
            shard_id,
            seed=spec.seed,
            loss_rate=spec.loss_rate,
            retain_trace=spec.retain_trace,
        )
        if observe:
            enable_observability(self.net)
        plan = spec.make_plan(hosts)
        if plan is not None:
            self.net.set_fault_plan(plan)
        self.nodes: Dict[str, MembershipNode] = {}
        self._deploy()

    # ------------------------------------------------------------------
    def _node_kwargs(self) -> Dict[str, Any]:
        kwargs: Dict[str, Any] = {}
        if self.spec.scheme == "gossip":
            kwargs["seeds"] = list(self.hosts)
        elif self.spec.scheme == "hierarchical":
            if self.spec.max_ttl is not None:
                kwargs["config"] = HierarchicalConfig(max_ttl=self.spec.max_ttl)
            else:
                kwargs["config"] = HierarchicalConfig()
        return kwargs

    def _deploy(self) -> None:
        scheme = self.spec.scheme
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; pick one of {sorted(SCHEMES)}")
        cls = SCHEMES[scheme]
        kwargs = self._node_kwargs()
        ranks = self.smap.host_rank
        local = [h for h in self.hosts if self.smap.host_shard[h] == self.shard_id]
        # Mirror protocols.base.deploy: construct all, then start all in
        # host order.  Each start runs under root key (rank,), so
        # deployment-scheduled events key identically at every shard
        # count.
        for host in local:
            self.nodes[host] = cls(self.net, host, **kwargs)
        for host in local:
            self.net.sim.set_root((ranks[host],))
            self.nodes[host].start()

    # ------------------------------------------------------------------
    def apply_op(self, op: Op) -> None:
        _time, idx, name, host = op
        self.net.sim.set_root((-1, idx))
        if name == "stop_node":
            node = self.nodes.get(host)
            if node is not None:
                node.stop()
        elif name == "start_node":
            node = self.nodes.get(host)
            if node is not None:
                node.start()
        elif name == "crash_host":
            self.net.crash_host(host)
        elif name == "recover_host":
            self.net.recover_host(host)
        else:
            raise ValueError(f"unknown control op {name!r}")

    # Thin pass-throughs the barrier drivers use -----------------------
    def peek(self) -> Optional[float]:
        return self.net.sim.peek()

    def run_window(self, end: float) -> None:
        self.net.sim.run_window(end)

    def run(self, until: float) -> None:
        self.net.sim.run(until=until)

    def take_outbox(self) -> List[Descriptor]:
        return self.net.take_outbox()

    def evaluate(self, descriptors: List[Descriptor]) -> None:
        self.net.evaluate(descriptors)

    def keyed_records(self) -> List[KeyedRecord]:
        """This shard's retained trace, paired with merge keys (picklable)."""
        tr = self.net.trace
        recs = tr.records()
        if len(recs) != len(tr.keys):  # pragma: no cover - invariant
            raise RuntimeError(
                f"shard {self.shard_id}: {len(recs)} records vs {len(tr.keys)} keys"
            )
        return [
            (key, (r.time, r.kind, r.node, r.data)) for key, r in zip(tr.keys, recs)
        ]


@dataclass
class ShardResult:
    """Outcome of one sharded run."""

    shards: int
    trace: TraceList
    hash: str
    #: events executed per shard, in shard-id order (load-balance view).
    events: Tuple[int, ...]
    #: number of cross-shard descriptors exchanged at barriers.
    exchanged: int
    #: number of barrier synchronisations performed.
    barriers: int
    registry: Optional[MetricsRegistry] = None
    summary: Dict[str, Any] = field(default_factory=dict)


def merge_keyed_records(per_shard: List[List[KeyedRecord]]) -> TraceList:
    """Sort all shards' keyed records into the one global total order."""
    pairs: List[KeyedRecord] = []
    for records in per_shard:
        pairs.extend(records)
    pairs.sort(key=lambda kv: kv[0])
    return [rec for _, rec in pairs]


class ShardRun:
    """Deploy a scenario over N in-process shards and drive the barriers."""

    def __init__(
        self, spec: ShardScenario, shards: int, observe: bool = False
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        self.spec = spec
        self.shards = shards
        topo, hosts = spec.build_topology()
        self.topo = topo
        self.hosts = hosts
        self._lookahead = topo.cross_segment_lookahead()
        self._t = 0.0
        self.exchanged = 0
        self.barriers = 0
        self._pending = resolve_ops(spec, hosts)
        # One process: the topology replica can be shared — every
        # mutation of it is a control op applied on all shards anyway.
        self.worlds = [
            ShardWorld(spec, shards, sid, topo=topo, hosts=hosts, observe=observe)
            for sid in range(shards)
        ]
        self.smap = self.worlds[0].smap

    # ------------------------------------------------------------------
    def _global_peek(self) -> Optional[float]:
        t_next: Optional[float] = None
        for world in self.worlds:
            p = world.peek()
            if p is not None and (t_next is None or p < t_next):
                t_next = p
        return t_next

    def _apply_due_ops(self, t: float) -> None:
        while self._pending and self._pending[0][0] <= t:
            op = self._pending.pop(0)
            for world in self.worlds:
                world.apply_op(op)

    def _exchange(self) -> None:
        merged: List[Descriptor] = []
        for world in self.worlds:
            merged.extend(world.take_outbox())
        if merged:
            merged.sort(key=Descriptor.sort_key)
            self.exchanged += len(merged)
            for world in self.worlds:
                world.evaluate(merged)

    def advance(self, until: float) -> None:
        """Run all shards up to (exclusive) ``until`` via barriers."""
        t = self._t
        self._apply_due_ops(t)
        while t < until:
            end = next_barrier_end(
                t,
                until,
                self._global_peek(),
                self._lookahead,
                self._pending[0][0] if self._pending else None,
            )
            for world in self.worlds:
                world.run_window(end)
            t = end
            self.barriers += 1
            # Ops due exactly at the barrier fire before the window's
            # own events at that instant — and before the deliveries the
            # exchange schedules (which revalidate liveness anyway).
            self._apply_due_ops(t)
            self._exchange()
        self._t = t

    def run(self) -> ShardResult:
        """Drive the whole scenario and return the merged result."""
        until = self.spec.run_until
        self.advance(until)
        # The final instant is inclusive, like Simulator.run(until=...).
        for world in self.worlds:
            world.run(until)
        return self._result()

    # ------------------------------------------------------------------
    def node(self, host: str) -> MembershipNode:
        return self.worlds[self.smap.host_shard[host]].nodes[host]

    def merged_trace(self) -> TraceList:
        return merge_keyed_records([w.keyed_records() for w in self.worlds])

    def _result(self) -> ShardResult:
        trace = self.merged_trace()
        registry: Optional[MetricsRegistry] = None
        if any(w.net.obs.enabled for w in self.worlds):
            registry = MetricsRegistry()
            for world in self.worlds:
                if world.net.obs.registry is not None:
                    registry.merge_from(world.net.obs.registry)
        events = tuple(w.net.sim.events_executed for w in self.worlds)
        return ShardResult(
            shards=self.shards,
            trace=trace,
            hash=trace_hash(trace),
            events=events,
            exchanged=self.exchanged,
            barriers=self.barriers,
            registry=registry,
            summary={
                "hosts": len(self.hosts),
                "segments": len(self.smap.segment_shard),
                "lookahead": self._lookahead,
            },
        )


def run_scenario(
    spec: ShardScenario, shards: int = 1, observe: bool = False
) -> ShardResult:
    """Convenience one-shot: deploy, run to ``spec.run_until``, merge."""
    return ShardRun(spec, shards, observe=observe).run()
