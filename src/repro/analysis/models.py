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
from typing import Dict, Optional, Type

from repro.detect.bounds import detection_bound
from repro.protocols.base import ProtocolConfig

__all__ = [
    "HOP_LATENCY",
    "SchemeModel",
    "AllToAllModel",
    "GossipModel",
    "HierarchicalModel",
    "MODELS",
]

#: Update transmission time per tree hop: a sub-millisecond in-cluster hop.
HOP_LATENCY = 0.001


class SchemeModel(ABC):
    """Closed-form model of one scheme at cluster size *n*.

    The Section 4 symbols come from ``config`` — s is ``member_size``,
    k is ``max_loss``, f is ``1 / heartbeat_period`` — plus the group
    size g.  The defaults are the evaluation's settings: s = 228 bytes,
    one packet per second, k = 5 missed heartbeats, groups of g = 20
    nodes and a 0.1 % gossip mistake probability.
    """

    name: str

    def __init__(self, config: Optional[ProtocolConfig] = None, group_size: int = 20) -> None:
        self.config = config if config is not None else ProtocolConfig()
        self.group_size = group_size
        #: f, heartbeats per second
        self.freq = 1.0 / self.config.heartbeat_period

    # ------------------------------------------------------------------
    @abstractmethod
    def aggregate_bandwidth(self, n: int) -> float:
        """Summed receive bandwidth over all nodes, bytes/second."""

    def detection_time(self, n: int) -> float:
        """Seconds from a failure to its first detection.

        One implementation for every scheme: the configured detector's
        advertised bound (:func:`repro.detect.bounds.detection_bound`),
        whose ``counter`` branches are the paper's per-scheme formulas.
        """
        return detection_bound(self.config, n, self.name)

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
        return self.freq * n * (n - 1) * self.config.member_size


class GossipModel(SchemeModel):
    """Each gossip message carries the full n-entry view (n x s bytes)."""

    name = "gossip"

    def aggregate_bandwidth(self, n: int) -> float:
        c = self.config
        return self.freq * c.gossip_fanout * n * (n * c.member_size)

    def convergence_time(self, n: int) -> float:
        # Every node times the failure out independently, offset by the
        # epidemic spread (~log2 n rounds) of the last counter increments.
        return self.detection_time(n) + 0.5 * math.log2(max(n, 2)) / self.freq


class HierarchicalModel(SchemeModel):
    """Groups of at most g nodes; a (n-1)/(g-1)-group tree of height log_g n."""

    name = "hierarchical"

    def num_groups(self, n: int) -> float:
        g = self.group_size
        if n <= g:
            return 1.0
        return (n - 1) / (g - 1)

    def tree_height(self, n: int) -> int:
        g = self.group_size
        return max(1, math.ceil(math.log(max(n, 2), g)))

    def aggregate_bandwidth(self, n: int) -> float:
        # Each group of (at most) g members exchanges g(g-1) heartbeats of
        # s bytes per cycle: O(s f g n) in total.
        g = min(self.group_size, n)
        return self.freq * self.num_groups(n) * g * (g - 1) * self.config.member_size

    def convergence_time(self, n: int) -> float:
        # Detection plus the update's trip up to the root and down every
        # subtree: 2 x (height - 1) hops; a single-group cluster (height 1)
        # needs no propagation at all, every member detects directly.
        hops = 2 * (self.tree_height(n) - 1)
        return self.detection_time(n) + hops * HOP_LATENCY


MODELS: Dict[str, Type[SchemeModel]] = {
    "all-to-all": AllToAllModel,
    "gossip": GossipModel,
    "hierarchical": HierarchicalModel,
}
