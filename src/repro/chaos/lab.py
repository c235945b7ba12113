"""The (detector x scheme) BDT/BCT matrix lab.

Section 4 of the paper compares dissemination schemes by their
bandwidth - detection time and bandwidth - convergence time products.
With failure detection now a strategy (:mod:`repro.detect`), the fair
comparison is two-dimensional: every detector crossed with every scheme,
each pair run on the same seeded chaos fabric (base packet loss plus a
directionally degraded inter-network link) with one mid-run crash.

Per pair the lab measures the empirical detection/convergence times and
steady-state aggregate bandwidth, multiplies them into empirical BDT/BCT,
and sets them next to the closed-form numbers from
:mod:`repro.analysis.models` (which quote the same
:func:`repro.detect.bounds.detection_bound` the gate is set from).
Every run is watched by the
:class:`~repro.chaos.invariants.InvariantChecker`, which derives the
per-detector false-failure budget from the pair's config; a pair is
``ok`` only when every invariant held and the failure was detected
within twice its advertised bound (plus slack for trace granularity).

``tests/detect/test_chaos_bounds.py`` runs a small instance of the matrix
as the tier-1 (and CI) gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.models import MODELS
from repro.chaos.invariants import InvariantChecker
from repro.chaos.runner import LOSS_RATE
from repro.cluster.failures import FailureSchedule
from repro.core.config import HierarchicalConfig
from repro.detect import DETECTORS
from repro.detect.bounds import detection_bound
from repro.metrics.collectors import (
    bandwidth_stats,
    convergence_time,
    detection_time,
)
from repro.metrics.experiment import make_scheme_cluster
from repro.net.faults import DEGRADED_LINK
from repro.protocols.base import ProtocolConfig

__all__ = ["DetectorMatrixLab", "DetectorPairResult"]

#: The matrix's schemes, in the order :meth:`DetectorMatrixLab.run` runs
#: them (its detectors are every registered strategy, in registry order).
MATRIX_SCHEMES = ("hierarchical", "all-to-all", "gossip")


@dataclass(frozen=True)
class DetectorPairResult:
    """Outcome of one (detector, scheme) chaos run."""

    detector: str
    scheme: str
    seed: int
    n: int
    #: empirical seconds from kill to first / last survivor noticing
    detection: Optional[float]
    convergence: Optional[float]
    #: steady-state aggregate receive bandwidth, bytes/second
    aggregate_bandwidth: float
    #: empirical products (bytes); None when the failure went undetected
    bdt: Optional[float]
    bct: Optional[float]
    #: closed-form products from repro.analysis.models at this n
    model_bdt: float
    model_bct: float
    #: the detector's advertised bound at this n (seconds) and the
    #: detection gate derived from it
    detection_bound_s: float
    detection_gate_s: float
    false_failures: int
    false_failure_bound: int
    violations: List[str]
    ok: bool


@dataclass
class DetectorMatrixLab:
    """Run the full detector x scheme matrix on one chaos fabric.

    The fabric reuses the canonical chaos scenario's shape: ``networks``
    switched networks of ``hosts_per_network`` hosts, the scenario's base
    loss (:data:`repro.chaos.runner.LOSS_RATE`) everywhere, and
    :data:`~repro.net.faults.DEGRADED_LINK` from network 1 to network 2
    for ``chaos_len`` seconds starting at ``warmup``.  The victim is an
    ordinary node of network 0 — its detection is measured clean while
    the invariant checker hunts false positives in the degraded corner.
    """

    networks: int = 3
    hosts_per_network: int = 8
    seed: int = 7
    warmup: float = 20.0
    bandwidth_window: float = 10.0
    observe: float = 45.0
    chaos_len: float = 20.0

    # ------------------------------------------------------------------
    def run_pair(self, detector: str, scheme: str) -> DetectorPairResult:
        """One seeded chaos run of ``scheme`` under ``detector``."""
        config_cls = HierarchicalConfig if scheme == "hierarchical" else ProtocolConfig
        config = config_cls(detector=detector)
        net, hosts, nodes = make_scheme_cluster(
            scheme,
            self.networks,
            self.hosts_per_network,
            seed=self.seed,
            loss_rate=LOSS_RATE,
            config=config,
        )
        n = len(hosts)
        bound = detection_bound(config, n, scheme)
        # Twice the advertised bound plus trace-granularity slack: loss
        # can eat the first declaration-enabling observation, adaptive
        # detectors stretch with the observed cadence under chaos.
        gate = 2.0 * bound + 3.0
        # Slow bounds need a longer watch than the default window.
        observe = max(self.observe, gate + 10.0)

        checker = InvariantChecker(net, nodes)
        checker.start()

        m = self.hosts_per_network
        groups = [hosts[i * m : (i + 1) * m] for i in range(self.networks)]
        if self.networks >= 3:
            net.ensure_fault_plan().add(
                src=groups[1],
                dst=groups[2],
                start=self.warmup,
                until=self.warmup + self.chaos_len,
                label="degraded:n1->n2",
                **DEGRADED_LINK,
            )

        net.run(until=self.warmup)
        net.meter.reset()
        net.run(until=net.now + self.bandwidth_window)
        stats = bandwidth_stats(net.meter, self.bandwidth_window, n)

        victim = groups[0][m // 2]
        sched = FailureSchedule(net)
        sched.register_stack(victim, nodes[victim])
        kill_time = net.now
        sched.crash_node_at(kill_time, victim)
        net.run(until=kill_time + observe)

        checker.finish()

        survivors = [h for h in hosts if h != victim]
        detection = detection_time(net.trace, victim, kill_time)
        convergence = convergence_time(
            net.trace, victim, kill_time, expected_observers=survivors
        )

        model = MODELS[scheme](config, group_size=self.hosts_per_network)
        bw = stats.aggregate_rate
        detected_in_time = detection is not None and detection <= gate
        ok = checker.ok and detected_in_time and convergence is not None
        return DetectorPairResult(
            detector=detector,
            scheme=scheme,
            seed=self.seed,
            n=n,
            detection=detection,
            convergence=convergence,
            aggregate_bandwidth=bw,
            bdt=bw * detection if detection is not None else None,
            bct=bw * convergence if convergence is not None else None,
            model_bdt=model.bdt(n),
            model_bct=model.bct(n),
            detection_bound_s=bound,
            detection_gate_s=gate,
            false_failures=len(checker.false_failures),
            false_failure_bound=checker.max_false_failures,
            violations=[f"{v.invariant}: {v.detail}" for v in checker.violations],
            ok=ok,
        )

    def run(self) -> List[DetectorPairResult]:
        """The full matrix, detectors outer, schemes inner."""
        return [
            self.run_pair(detector, scheme)
            for detector in DETECTORS
            for scheme in MATRIX_SCHEMES
        ]
