"""The canonical seeded chaos scenario.

One :class:`ChaosScenario` run is the repo's acceptance stress for the
hierarchical protocol: a warm converged cluster is hit, simultaneously,
with

* an **asymmetric partition** — network 0's packets toward everyone else
  vanish while the reverse direction keeps flowing (the failure mode a
  downed switch cannot produce);
* a **lossy, jittery, reordering, duplicating** directional link between
  networks 1 and 2 (fault-plan rules, Fig. 12's loss regime);
* a **crash and later recovery** of a victim node inside network 1 —
  the paper's Fig. 13/14 event, now under chaos.

Afterwards the faults lapse (their ``until`` windows pass), the victim
rejoins, and the cluster gets a quiet period.  The run is green when the
:class:`~repro.chaos.invariants.InvariantChecker` saw nothing and every
survivor's directory agrees at the end.

Everything — base loss, chaos draws, protocol jitter, crash times — is
derived from the scenario seed, and fault draws happen at send time in
delivery-plan (= subscription) order, so same-seed runs produce a
byte-identical trace (pinned by the determinism guard's golden chaos
hash).  Detection/convergence times and the Fig. 13/14
recovery curves are extracted from the trace; ``tests/chaos/test_scenario.py``
sweeps five seeds as the tier-1 (and CI) gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.chaos.invariants import InvariantChecker, Violation
from repro.cluster.failures import FailureSchedule
from repro.metrics.collectors import (
    convergence_time,
    detection_time,
    view_change_curve,
)
from repro.metrics.experiment import make_scheme_cluster
from repro.obs.registry import MetricsRegistry
from repro.obs.wiring import enable_observability

__all__ = ["ChaosScenario", "ChaosResult"]


@dataclass(frozen=True)
class ChaosResult:
    """Everything one chaos run produced."""

    seed: int
    victim: str
    kill_time: float
    recover_time: float
    #: seconds from kill to first / last survivor logging the failure
    detection: Optional[float]
    convergence: Optional[float]
    #: Fig. 13-style curve: (seconds after kill, observers that know)
    down_curve: List[Tuple[float, int]]
    #: Fig. 14-style curve: (seconds after recovery, observers that re-added)
    up_curve: List[Tuple[float, int]]
    violations: List[Violation]
    false_failures: int
    fault_stats: Dict[str, int]
    failure_log: List[Tuple[float, str, str]]
    #: full trace, hashable form — equal across same-seed runs
    trace_signature: List[Tuple[float, str, Optional[str], tuple]]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class ChaosScenario:
    """Seeded asymmetric-partition + lossy-link + crash/recover scenario."""

    seed: int = 7
    networks: int = 3
    hosts_per_network: int = 8
    loss_rate: float = 0.02
    warmup: float = 20.0
    chaos_start: float = 25.0
    chaos_end: float = 45.0
    quiesce: float = 35.0
    #: directional loss on the network-1 -> network-2 link during chaos
    directional_loss: float = 0.2
    jitter: float = 0.05
    reorder: float = 0.3
    reorder_window: float = 0.2
    duplicate: float = 0.1
    dup_lag: float = 0.05
    check_period: float = 2.0
    max_false_failures: int = 10
    #: Optional metrics registry: when set, the run is fully instrumented
    #: (protocol counters live, scenario outcomes recorded at the end).
    registry: Optional[MetricsRegistry] = None

    def run(self) -> ChaosResult:
        net, hosts, nodes = make_scheme_cluster(
            "hierarchical",
            self.networks,
            self.hosts_per_network,
            seed=self.seed,
            loss_rate=self.loss_rate,
        )
        obs = None
        if self.registry is not None:
            obs = enable_observability(net, self.registry)
        m = self.hosts_per_network
        groups = [hosts[i * m : (i + 1) * m] for i in range(self.networks)]

        sched = FailureSchedule(net)
        for host in hosts:
            sched.register_stack(host, nodes[host])
        checker = InvariantChecker(
            net, nodes, max_false_failures=self.max_false_failures
        )
        checker.start(self.check_period)

        # Asymmetric partition: network 0 goes mute, but still hears.
        rest = [h for g in groups[1:] for h in g]
        sched.partition_at(
            self.chaos_start, groups[0], rest,
            heal_at=self.chaos_end, symmetric=False,
        )
        # Directional degradation between networks 1 and 2.
        net.ensure_fault_plan().add(
            src=groups[1],
            dst=groups[2 % self.networks],
            loss=self.directional_loss,
            jitter=self.jitter,
            reorder=self.reorder,
            reorder_window=self.reorder_window,
            duplicate=self.duplicate,
            dup_lag=self.dup_lag,
            start=self.chaos_start,
            until=self.chaos_end,
            label="degraded:n1->n2",
        )
        # The Fig. 13/14 event, mid-chaos: kill an ordinary node of the
        # degraded network, recover it after the faults lapse.
        victim = groups[1][m // 2]
        kill_time = self.chaos_start + 5.0
        recover_time = self.chaos_end + 5.0
        sched.crash_node_at(kill_time, victim)
        sched.recover_node_at(recover_time, victim)

        net.run(until=self.chaos_end + self.quiesce)

        checker.stop()
        checker.check_false_failures()
        checker.check_agreement()

        observers = [h for h in hosts if h != victim]
        # Strict convergence over the side of the partition that could
        # actually exchange updates with the victim's network in both
        # directions throughout.
        strict = [h for h in rest if h != victim]
        signature = [
            (r.time, r.kind, r.node, tuple(sorted(r.data.items())))
            for r in net.trace
        ]
        detection = detection_time(net.trace, victim, kill_time)
        convergence = convergence_time(
            net.trace, victim, kill_time, expected_observers=strict
        )
        if obs is not None:
            # Scenario-level outcomes: recorded once, after the run, so
            # they cannot perturb the simulation itself.
            inst = obs.instruments
            if detection is not None:
                inst.detection.observe(detection)
            if convergence is not None:
                inst.convergence.observe(convergence)
            for v in checker.violations:
                inst.chaos_violations.labels(invariant=v.invariant).inc()
            if net.fault_plan is not None:
                for effect, count in net.fault_plan.stats.items():
                    inst.fault_effects.labels(effect=effect).add(count)
            obs.sample_kernel()
        return ChaosResult(
            seed=self.seed,
            victim=victim,
            kill_time=kill_time,
            recover_time=recover_time,
            detection=detection,
            convergence=convergence,
            down_curve=view_change_curve(
                net.trace, victim, observers, since=kill_time
            ),
            up_curve=view_change_curve(
                net.trace, victim, observers, since=recover_time, kind="member_up"
            ),
            violations=list(checker.violations),
            false_failures=len(checker.false_failures),
            fault_stats=dict(net.fault_plan.stats) if net.fault_plan else {},
            failure_log=list(sched.log),
            trace_signature=signature,
        )
