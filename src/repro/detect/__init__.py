"""Pluggable failure detection — the repo's third swappable axis.

The paper's protocol welds one detector into its roles: a peer is dead
after ``MAX_LOSS`` consecutive missed heartbeats.  This package extracts
that decision behind a small strategy interface so the *detector* varies
independently of the *dissemination scheme* (hierarchical / all-to-all /
gossip) and of the *runtime* (simulated / asyncio UDP):

===================  ========================================================
``counter``          :class:`~repro.detect.counter.CounterDetector` — the
                     paper's MAX_LOSS deadline, passive, byte-identical to
                     the pre-refactor code paths (golden traces pin this)
``swim``             :class:`~repro.detect.swim.SwimDetector` — SWIM-style
                     direct ping, *k* indirect ping-req relays, suspicion
                     with incarnation refutation
``phi-accrual``      :class:`~repro.detect.phi.PhiAccrualDetector` — adaptive
                     inter-arrival window, configurable φ threshold
===================  ========================================================

Detectors speak only :class:`~repro.runtime.ports.NodeRuntime` ports, so
every strategy runs unchanged under ``SimRuntime`` and ``AsyncRuntime``.
``repro.chaos.lab`` runs the full (detector × scheme) BDT/BCT matrix of
the paper's Section 4 analysis; ``docs/DETECTORS.md`` has the contract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Type

from repro.detect.base import (
    FailureDetector,
    Prober,
    UnicastProber,
    handle_probe_packet,
)
from repro.detect.bounds import detection_bound
from repro.detect.counter import CounterDetector
from repro.detect.phi import PhiAccrualDetector
from repro.detect.swim import SwimDetector

if TYPE_CHECKING:
    from repro.protocols.base import ProtocolConfig
    from repro.runtime.ports import NodeRuntime

__all__ = [
    "DETECTORS",
    "FailureDetector",
    "Prober",
    "UnicastProber",
    "CounterDetector",
    "SwimDetector",
    "PhiAccrualDetector",
    "make_detector",
    "detection_bound",
    "handle_probe_packet",
]

#: detector name -> strategy class (the names the config layer accepts).
DETECTORS: Dict[str, Type[FailureDetector]] = {
    CounterDetector.name: CounterDetector,
    SwimDetector.name: SwimDetector,
    PhiAccrualDetector.name: PhiAccrualDetector,
}


def make_detector(config: "ProtocolConfig", runtime: "NodeRuntime") -> FailureDetector:
    """Instantiate the detector named by ``config.detector``.

    Raised loudly on typos: a silently-defaulted detector would make every
    comparison in the BDT/BCT lab a lie.
    """
    cls = DETECTORS.get(config.detector)
    if cls is None:
        raise ValueError(
            f"unknown detector {config.detector!r}; pick one of {sorted(DETECTORS)}"
        )
    return cls(config, runtime)
