"""Declarative, picklable scenario specs for the sharded kernel.

A :class:`ShardScenario` is everything a worker process needs to rebuild
its replica of the world from scratch: the topology is named by builder
key + arguments (never pickled — every shard constructs the identical
graph), the chaos plan is a tuple of declarative rules over host *index
ranges*, and failure injection is a timeline of ``(time, op, host_idx)``
control operations applied at window barriers.

The ``golden`` constructor reproduces the pinned golden-trace scenario
of ``tests/integration/test_determinism_guard.py`` so the sharded
differential suite exercises the exact same workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.builders import (
    build_overlap_topology,
    build_router_tree,
    build_switched_cluster,
    build_two_datacenters,
)
from repro.net.faults import DEGRADED_LINK, FaultPlan
from repro.net.topology import Topology

__all__ = ["LinkRule", "PartitionRule", "ShardScenario"]

#: ``hosts[start:stop]`` with ``stop=None`` meaning "to the end".
Span = Tuple[int, Optional[int]]

BUILDERS: Dict[str, Callable[..., Tuple[Any, ...]]] = {
    "switched": build_switched_cluster,
    "router-tree": build_router_tree,
    "overlap": build_overlap_topology,
    "two-dc": build_two_datacenters,
}


@dataclass(frozen=True)
class PartitionRule:
    """A :meth:`FaultPlan.partition` call over host index spans."""

    side_a: Span
    side_b: Span
    start: float = 0.0
    until: float = float("inf")
    symmetric: bool = True
    loss: float = 1.0


@dataclass(frozen=True)
class LinkRule:
    """A :meth:`FaultPlan.add` call over host index spans."""

    src: Optional[Span] = None
    dst: Optional[Span] = None
    loss: float = 0.0
    jitter: float = 0.0
    reorder: float = 0.0
    reorder_window: float = 0.0
    duplicate: float = 0.0
    dup_lag: float = 0.0
    start: float = 0.0
    until: float = float("inf")


def _span(hosts: List[str], span: Span) -> List[str]:
    return hosts[span[0] : span[1]]


@dataclass(frozen=True)
class ShardScenario:
    """A fully-declarative run spec (see module docstring)."""

    builder: str = "switched"
    builder_args: Tuple[int, ...] = (3, 10)
    scheme: str = "hierarchical"
    seed: int = 0
    loss_rate: float = 0.0
    run_until: float = 50.0
    #: Hierarchical scheme only: announce-TTL ceiling (router-tree rows
    #: need it to cover the tree diameter, like the plain-engine bench).
    max_ttl: Optional[int] = None
    #: Disable for huge benchmark runs: a 10k-node formation emits ~10^8
    #: records, and hashing is only meaningful when retention is on.
    retain_trace: bool = True
    #: Barrier-applied control timeline: ``(time, op, host_index)`` with
    #: op in {"stop_node", "crash_host", "recover_host", "start_node"}.
    ops: Tuple[Tuple[float, str, int], ...] = ()
    partitions: Tuple[PartitionRule, ...] = field(default=())
    link_rules: Tuple[LinkRule, ...] = field(default=())

    # ------------------------------------------------------------------
    def build_topology(self) -> Tuple[Topology, List[str]]:
        try:
            builder = BUILDERS[self.builder]
        except KeyError:
            raise ValueError(
                f"unknown builder {self.builder!r}; known: {sorted(BUILDERS)}"
            ) from None
        out = builder(*self.builder_args)
        # Builders return (topo, hosts) or (topo, hosts_a, hosts_b, ...);
        # flatten to one host list in builder emission order.
        topo = out[0]
        hosts: List[str] = []
        for part in out[1:]:
            hosts.extend(part)
        return topo, hosts

    def make_plan(self, hosts: List[str]) -> Optional[FaultPlan]:
        """Materialise the chaos rules (identically on every shard)."""
        if not self.partitions and not self.link_rules:
            return None
        plan = FaultPlan()
        for p in self.partitions:
            plan.partition(
                _span(hosts, p.side_a),
                _span(hosts, p.side_b),
                start=p.start,
                until=p.until,
                symmetric=p.symmetric,
                loss=p.loss,
            )
        for r in self.link_rules:
            plan.add(
                src=_span(hosts, r.src) if r.src is not None else None,
                dst=_span(hosts, r.dst) if r.dst is not None else None,
                loss=r.loss,
                jitter=r.jitter,
                reorder=r.reorder,
                reorder_window=r.reorder_window,
                duplicate=r.duplicate,
                dup_lag=r.dup_lag,
                start=r.start,
                until=r.until,
            )
        return plan

    # ------------------------------------------------------------------
    @classmethod
    def golden(cls, scheme: str, seed: int, chaos: bool = False) -> "ShardScenario":
        """The pinned 3x10 determinism-guard workload.

        Mirrors the determinism guard's golden-trace runs: 2% uniform
        loss, node 5 stopped and crashed at t=20, observed until t=50; the
        chaos variant adds an asymmetric partition and a
        lossy/jittery/reordering inter-segment rule over t in [15, 30).
        """
        partitions: Tuple[PartitionRule, ...] = ()
        link_rules: Tuple[LinkRule, ...] = ()
        if chaos:
            partitions = (
                PartitionRule(
                    side_a=(0, 10),
                    side_b=(10, None),
                    start=15.0,
                    until=30.0,
                    symmetric=False,
                ),
            )
            link_rules = (
                LinkRule(src=(10, 20), dst=(20, None), start=15.0, until=30.0, **DEGRADED_LINK),
            )
        return cls(
            builder="switched",
            builder_args=(3, 10),
            scheme=scheme,
            seed=seed,
            loss_rate=0.02,
            run_until=50.0,
            ops=((20.0, "stop_node", 5), (20.0, "crash_host", 5)),
            partitions=partitions,
            link_rules=link_rules,
        )
