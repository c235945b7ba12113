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
:mod:`repro.analysis.models` (which route through the same
:func:`repro.detect.bounds.detection_bound` the detectors advertise).
Every run is watched by the
:class:`~repro.chaos.invariants.InvariantChecker` with the per-detector
false-failure budget; a pair is ``ok`` only when every invariant held and
the failure was detected within twice its advertised bound (plus slack
for trace granularity).

``tests/detect/test_chaos_bounds.py`` runs a small instance of the matrix
as the tier-1 (and CI) gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.models import MODELS, AnalysisParams
from repro.chaos.invariants import InvariantChecker, false_failure_bound
from repro.core.config import HierarchicalConfig
from repro.detect.bounds import config_detection_bound
from repro.metrics.collectors import (
    bandwidth_stats,
    convergence_time,
    detection_time,
)
from repro.metrics.experiment import make_scheme_cluster
from repro.protocols.base import ProtocolConfig

__all__ = ["DetectorMatrixLab", "DetectorPairResult"]


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
    switched networks of ``hosts_per_network`` hosts, base ``loss_rate``
    everywhere, and a directionally degraded link between networks 1 and
    2 for ``chaos_len`` seconds starting at ``warmup``.  The victim is an
    ordinary node of network 0 — its detection is measured clean while
    the invariant checker hunts false positives in the degraded corner.
    """

    networks: int = 3
    hosts_per_network: int = 8
    seed: int = 7
    loss_rate: float = 0.02
    warmup: float = 20.0
    bandwidth_window: float = 10.0
    observe: float = 45.0
    chaos_len: float = 20.0
    directional_loss: float = 0.2
    jitter: float = 0.05
    reorder: float = 0.3
    reorder_window: float = 0.2
    duplicate: float = 0.1
    dup_lag: float = 0.05
    check_period: float = 2.0
    detectors: Sequence[str] = ("counter", "swim", "phi-accrual")
    schemes: Sequence[str] = ("hierarchical", "all-to-all", "gossip")
    #: extra detector knobs applied to every pair's config
    config_overrides: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def _make_config(self, detector: str, scheme: str) -> ProtocolConfig:
        kwargs: Dict[str, object] = {"detector": detector, **self.config_overrides}
        if scheme == "hierarchical":
            return HierarchicalConfig(**kwargs)  # type: ignore[arg-type]
        return ProtocolConfig(**kwargs)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def run_pair(self, detector: str, scheme: str) -> DetectorPairResult:
        """One seeded chaos run of ``scheme`` under ``detector``."""
        config = self._make_config(detector, scheme)
        net, hosts, nodes = make_scheme_cluster(
            scheme,
            self.networks,
            self.hosts_per_network,
            seed=self.seed,
            loss_rate=self.loss_rate,
            config=config,
        )
        n = len(hosts)
        bound = config_detection_bound(config, n, scheme)
        # Twice the advertised bound plus trace-granularity slack: loss
        # can eat the first declaration-enabling observation, adaptive
        # detectors stretch with the observed cadence under chaos.
        gate = 2.0 * bound + 3.0
        # Slow bounds need a longer watch than the default window.
        observe = max(self.observe, gate + 10.0)

        checker = InvariantChecker(
            net, nodes, max_false_failures=false_failure_bound(detector)
        )
        checker.start(self.check_period)

        m = self.hosts_per_network
        groups = [hosts[i * m : (i + 1) * m] for i in range(self.networks)]
        if self.networks >= 3:
            net.ensure_fault_plan().add(
                src=groups[1],
                dst=groups[2],
                loss=self.directional_loss,
                jitter=self.jitter,
                reorder=self.reorder,
                reorder_window=self.reorder_window,
                duplicate=self.duplicate,
                dup_lag=self.dup_lag,
                start=self.warmup,
                until=self.warmup + self.chaos_len,
                label="degraded:n1->n2",
            )

        net.run(until=self.warmup)
        net.meter.reset()
        net.run(until=net.now + self.bandwidth_window)
        stats = bandwidth_stats(net.meter, self.bandwidth_window, n)

        victim = groups[0][m // 2]
        nodes[victim].stop()
        net.crash_host(victim)
        kill_time = net.now
        net.run(until=kill_time + observe)

        checker.stop()
        checker.check_false_failures()
        checker.check_agreement()

        survivors = [h for h in hosts if h != victim]
        detection = detection_time(net.trace, victim, kill_time)
        convergence = convergence_time(
            net.trace, victim, kill_time, expected_observers=survivors
        )

        model = MODELS[scheme](
            AnalysisParams.from_config(config, group_size=self.hosts_per_network)
        )
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
            for detector in self.detectors
            for scheme in self.schemes
        ]
