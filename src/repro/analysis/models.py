"""Section 4 scalability analysis.

The paper derives, for each scheme, the failure-detection time, the view-
convergence time, and two figures of merit combining them with traffic:
the **bandwidth - detection time product** (BDT) and **bandwidth -
convergence time product** (BCT) — "protocols with lower BDT values are
better, because they use less time to detect a failure with a fixed
bandwidth".

We evaluate the models in the *fixed-frequency* regime the evaluation
uses ("In practice, each node often fixes its multicast frequency"): every
node sends one heartbeat/gossip per ``1/freq`` seconds, detection follows
from ``max_loss`` missed beats, and the bandwidth follows from the scheme's
message sizes:

================  =====================  ==========================
scheme            aggregate bandwidth    detection time
================  =====================  ==========================
all-to-all        O(s f n^2)             k / f (constant)
gossip            O(s f n^2)             O(log n) / f
hierarchical      O(s f g n)             k / f (constant)
================  =====================  ==========================

so the BDT products are O(k s n^2), O(k s n^2 log n) and O(k s g n)
respectively — the hierarchical scheme is the most scalable, as the paper
concludes.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, Optional, Type

from repro.detect.bounds import detection_bound

if TYPE_CHECKING:
    from repro.protocols.base import ProtocolConfig

__all__ = [
    "AnalysisParams",
    "SchemeModel",
    "AllToAllModel",
    "GossipModel",
    "HierarchicalModel",
    "MODELS",
]


@dataclass(frozen=True)
class AnalysisParams:
    """Symbols of the Section 4 analysis.

    Defaults are the evaluation's settings: s = 228 bytes, one packet per
    second, k = 5 missed heartbeats, groups of g = 20 nodes, 0.1 % gossip
    mistake probability, and a sub-millisecond in-cluster hop time.
    """

    member_size: int = 228  # s
    freq: float = 1.0  # heartbeats / second
    max_loss: int = 5  # k
    group_size: int = 20  # g
    gossip_fanout: int = 1
    gossip_mistake_prob: float = 0.001
    hop_latency: float = 0.001  # update transmission time per tree hop
    #: failure-detection strategy whose advertised bound the models quote
    #: (:mod:`repro.detect.bounds`); the default reproduces the paper.
    detector: str = "counter"
    phi_threshold: float = 8.0
    suspicion_timeout: float = 2.0
    probe_timeout: float = 0.5
    probe_period: Optional[float] = None  # None: the heartbeat period
    indirect_probes: int = 3

    @classmethod
    def from_config(cls, config: "ProtocolConfig", *, group_size: int) -> "AnalysisParams":
        """The analysis symbols of a protocol config.

        Every field the two dataclasses share by name is read off
        ``config``; ``freq`` is the reciprocal of its heartbeat period.
        """
        shared = {
            f.name: getattr(config, f.name) for f in fields(cls) if hasattr(config, f.name)
        }
        return cls(**shared, freq=1.0 / config.heartbeat_period, group_size=group_size)


class SchemeModel(ABC):
    """Closed-form model of one scheme at cluster size *n*."""

    name: str

    def __init__(self, params: AnalysisParams | None = None) -> None:
        self.params = params if params is not None else AnalysisParams()

    # ------------------------------------------------------------------
    @abstractmethod
    def aggregate_bandwidth(self, n: int) -> float:
        """Summed receive bandwidth over all nodes, bytes/second."""

    def detection_time(self, n: int) -> float:
        """Seconds from a failure to its first detection.

        One implementation for every scheme, routed through the active
        detector's advertised bound (:func:`repro.detect.bounds.
        detection_bound`) — the pre-refactor per-scheme formulas are the
        ``counter`` branches of that function, so default-parameter
        numbers are unchanged.
        """
        p = self.params
        return detection_bound(
            p.detector,
            period=1.0 / p.freq,
            max_loss=p.max_loss,
            n=n,
            scheme=self.name,
            phi_threshold=p.phi_threshold,
            suspicion_timeout=p.suspicion_timeout,
            probe_timeout=p.probe_timeout,
            probe_period=p.probe_period,
            gossip_mistake_prob=p.gossip_mistake_prob,
        )

    def convergence_time(self, n: int) -> float:
        """Seconds until every node's view reflects the failure.

        Defaults to the detection time — in the flat and gossip schemes
        "all nodes maintain their views independently".
        """
        return self.detection_time(n)

    # ------------------------------------------------------------------
    def bdt(self, n: int) -> float:
        """Bandwidth - detection time product (bytes)."""
        return self.aggregate_bandwidth(n) * self.detection_time(n)

    def bct(self, n: int) -> float:
        """Bandwidth - convergence time product (bytes)."""
        return self.aggregate_bandwidth(n) * self.convergence_time(n)

    def per_node_bandwidth(self, n: int) -> float:
        return self.aggregate_bandwidth(n) / n if n else 0.0


class AllToAllModel(SchemeModel):
    """Every node multicasts an s-byte heartbeat to all n-1 others."""

    name = "all-to-all"

    def aggregate_bandwidth(self, n: int) -> float:
        p = self.params
        return p.freq * n * (n - 1) * p.member_size


class GossipModel(SchemeModel):
    """Each gossip message carries the full n-entry view (n x s bytes)."""

    name = "gossip"

    def aggregate_bandwidth(self, n: int) -> float:
        p = self.params
        return p.freq * p.gossip_fanout * n * (n * p.member_size)

    def convergence_time(self, n: int) -> float:
        # Every node times the failure out independently, offset by the
        # epidemic spread (~log2 n rounds) of the last counter increments.
        p = self.params
        return self.detection_time(n) + 0.5 * math.log2(max(n, 2)) / p.freq


class HierarchicalModel(SchemeModel):
    """Groups of at most g nodes; a (n-1)/(g-1)-group tree of height log_g n."""

    name = "hierarchical"

    def num_groups(self, n: int) -> float:
        g = self.params.group_size
        if n <= g:
            return 1.0
        return (n - 1) / (g - 1)

    def tree_height(self, n: int) -> int:
        g = self.params.group_size
        return max(1, math.ceil(math.log(max(n, 2), g)))

    def aggregate_bandwidth(self, n: int) -> float:
        # Each group of (at most) g members exchanges g(g-1) heartbeats of
        # s bytes per cycle: O(s f g n) in total.
        p = self.params
        g = min(p.group_size, n)
        return p.freq * self.num_groups(n) * g * (g - 1) * p.member_size

    def convergence_time(self, n: int) -> float:
        # Detection plus the update's trip up to the root and down every
        # subtree: 2 x (height - 1) hops; a single-group cluster (height 1)
        # needs no propagation at all, every member detects directly.
        hops = 2 * (self.tree_height(n) - 1)
        return self.detection_time(n) + hops * self.params.hop_latency


MODELS: Dict[str, Type[SchemeModel]] = {
    "all-to-all": AllToAllModel,
    "gossip": GossipModel,
    "hierarchical": HierarchicalModel,
}
