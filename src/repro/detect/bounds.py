"""Advertised detection bounds — one formula source for every consumer.

The paper's Section 4 analysis multiplies bandwidth by *detection time*;
with the detector now pluggable, that time depends on the strategy, not
just ``max_loss``.  Everything that quotes a detection time — the
closed-form models in :mod:`repro.analysis.models`, the chaos lab's
per-pair gates, the invariant checker's resurrection grace and the
gossip scheme's dead-list lifetime — calls :func:`detection_bound` with
a :class:`~repro.protocols.base.ProtocolConfig`, so the plots, the JSON
artifacts and the CI checks can never disagree about what a strategy
promises, and no knob is typed out a second time.

Formulas (worst-typical seconds from failure to first declaration):

``counter``
    ``max_loss × heartbeat_period`` — the paper's constant bound; for
    the gossip scheme the counter deadline is the van Renesse ``t_fail``
    and grows as ``O(log n)`` (:func:`repro.protocols.gossip.gossip_fail_time`).
``swim``
    expected wait until some member's next probe round picks the dead
    node (``probe_period / (1 - e^-1)`` with every member probing one
    uniformly-random peer per round), plus the direct and indirect probe
    timeouts, plus the suspicion deadline.
``phi-accrual``
    under the exponential inter-arrival model, ``φ(t) = t / (mean·ln 10)``
    crosses the threshold after ``phi_threshold · ln 10 · mean`` seconds
    of silence; with a healthy peer ``mean ≈ heartbeat_period``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.protocols.base import ProtocolConfig

__all__ = ["detection_bound"]

#: 1 - e^-1: per-round probability a given peer is probed by at least one
#: of n-1 members each probing one uniform target, in the large-n limit.
_PICK_PROB = 1.0 - math.exp(-1.0)

LN10 = math.log(10.0)

#: bursty epidemic arrivals roughly double the inter-observation mean a
#: φ window learns under the gossip scheme (see the phi branch below).
_GOSSIP_ARRIVAL_DISPERSION = 2.0


def detection_bound(
    config: "ProtocolConfig", n: int = 2, scheme: str = "hierarchical"
) -> float:
    """Advertised detection bound of ``config.detector`` at cluster size ``n``.

    Every knob is read off ``config``.  ``scheme`` only matters for the
    counter strategy, whose deadline under gossip is the log-growing
    ``t_fail`` rather than ``max_loss × heartbeat_period``.
    """
    detector = config.detector
    period = config.heartbeat_period
    if detector == "counter":
        if scheme == "gossip":
            from repro.protocols.gossip import gossip_fail_time

            return gossip_fail_time(n, period, config.gossip_mistake_prob)
        return config.max_loss * period
    if detector == "swim":
        return (
            config.probe_period / _PICK_PROB
            + 2.0 * config.probe_timeout
            + config.suspicion_timeout
        )
    if detector == "phi-accrual":
        if scheme == "gossip":
            # Gossip feeds φ with merged counter-increase arrivals, not
            # raw heartbeats: the epidemic delivers increases in bursts
            # (a merge can jump a counter by several steps but counts as
            # one observation), roughly doubling the effective mean
            # inter-arrival the window learns.
            return config.phi_threshold * LN10 * period * _GOSSIP_ARRIVAL_DISPERSION
        return config.phi_threshold * LN10 * period
    raise ValueError(f"unknown detector {detector!r}")
