"""Analytical models from the paper.

:mod:`repro.analysis.models` implements the Section 4 scalability analysis
(failure-detection time, view-convergence time, and the bandwidth-
detection-time / bandwidth-convergence-time products for the three
schemes); :mod:`repro.analysis.cpumodel` implements the Fig. 2 per-packet
CPU/bandwidth overhead model of the all-to-all scheme.
"""

from repro.analysis.models import (
    HOP_LATENCY,
    SchemeModel,
    AllToAllModel,
    GossipModel,
    HierarchicalModel,
    MODELS,
)
from repro.analysis.cpumodel import AllToAllOverheadModel

__all__ = [
    "HOP_LATENCY",
    "SchemeModel",
    "AllToAllModel",
    "GossipModel",
    "HierarchicalModel",
    "MODELS",
    "AllToAllOverheadModel",
]
