"""Protocol safety invariants, checked live against a running simulation.

The checker needs ground truth the protocol nodes themselves never see:
which daemons are *actually* running (``node.running``), which links the
fault plan currently severs, and which incarnations are provably over.
It gets all of it by polling the node objects on a recurring tick and
subscribing to the shared trace — zero protocol-code hooks.

What counts as a violation is deliberately conservative:

* **Dual leaders** must be *mutually visible* — both running, both flying
  the flag at the same level, within TTL range of each other over live
  devices, and not separated by a severing fault rule — and must persist
  for ``leader_streak`` consecutive ticks.  Transient dual leadership
  after a partition heals is the election protocol *working* (the
  two-leaders rule needs a heartbeat round to fire), not a bug.
* **Resurrection** only fires after ``zombie_grace`` seconds: removal of
  a dead node legitimately takes up to the relayed timeout to reach
  quiet corners of the tree.
* **False failures** are bounded, not forbidden: with loss rate *p* and
  ``MAX_LOSS`` *k*, a live node is declared dead with probability ~*p^k*
  per observation window — the paper's own Fig. 12 accuracy argument.
  Removals across severed links or downed devices are correct behaviour
  and are not counted at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from repro.detect.bounds import detection_bound
from repro.net.network import Network
from repro.net.topology import UNREACHABLE
from repro.protocols.base import MembershipNode
from repro.sim.trace import TraceRecord

__all__ = ["CHECK_PERIOD", "InvariantChecker", "Violation", "false_failure_bound"]

#: Seconds of virtual time between two checking passes.
CHECK_PERIOD = 2.0

#: Per-detector false-failure budgets (scenario-long counts).  The
#: counter and SWIM strategies declare on hard evidence (k missed
#: deadlines / failed probes + suspicion), so they share the historical
#: bound; φ-accrual is probabilistic by construction — its threshold
#: trades detection speed against exactly these mistakes — and earns a
#: proportionally larger budget under the same chaos.
FALSE_FAILURE_BOUND_FACTORS: Dict[str, int] = {
    "counter": 10,
    "swim": 10,
    "phi-accrual": 20,
}


def false_failure_bound(detector: str) -> int:
    """Scenario false-failure budget for ``detector`` (default strategies': 10)."""
    return FALSE_FAILURE_BOUND_FACTORS.get(detector, 10)


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach."""

    time: float
    invariant: str  # "dual_leader" | "resurrection" | "false_failures" | "agreement"
    detail: str


class InvariantChecker:
    """Watches a simulated cluster for membership-safety violations.

    Parameters
    ----------
    network, nodes:
        The deployment under test (``nodes`` maps host -> protocol stack).
    leader_streak:
        Consecutive ticks a mutually-visible dual-leader pair must persist
        before it becomes a violation.
    zombie_grace:
        Seconds a buried ``(node, incarnation)`` may linger in someone's
        directory before counting as a resurrection.  Defaults to the
        slowest legitimate removal path: relayed timeout + the deepest
        level timeout + two heartbeat periods.
    max_false_failures:
        Upper bound for :meth:`check_false_failures`.  ``None`` (default)
        derives it from the deployment's failure-detection strategy via
        :func:`false_failure_bound` — adaptive detectors are budgeted
        more mistakes than deadline ones under the same chaos.
    """

    def __init__(
        self,
        network: Network,
        nodes: Dict[str, MembershipNode],
        leader_streak: int = 3,
        zombie_grace: Optional[float] = None,
        max_false_failures: Optional[int] = None,
    ) -> None:
        self.network = network
        self.nodes = nodes
        self.leader_streak = leader_streak
        if max_false_failures is None:
            detector = "counter"
            for node in nodes.values():
                detector = getattr(node.config, "detector", "counter")
                break
            max_false_failures = false_failure_bound(detector)
        self.max_false_failures = max_false_failures
        if zombie_grace is None:
            zombie_grace = self._default_grace()
        self.zombie_grace = zombie_grace
        self.violations: List[Violation] = []
        #: (time, observer, target, reason) of every counted false failure
        self.false_failures: List[Tuple[float, str, str, str]] = []
        # (node_id, incarnation) -> time we first observed that life over
        self._life_ends: Dict[Tuple[str, int], float] = {}
        self._last_state: Dict[str, Tuple[bool, int]] = {}
        # (level, leader_a, leader_b) -> consecutive ticks observed
        self._dual_streaks: Dict[Tuple[int, str, str], int] = {}
        # (observer, target, incarnation) already flagged, so one zombie
        # entry yields one violation, not one per tick
        self._flagged_zombies: set = set()
        self._timer = None
        network.trace.subscribe(self._on_record)

    def _default_grace(self) -> float:
        # Legitimate removal can take as long as the slowest node's
        # detector bound (every flat-scheme node times the death out
        # independently), so the grace scales with the active strategy —
        # a φ threshold of 8 legitimately holds entries ~4x longer than
        # MAX_LOSS counting does.
        n = max(len(self.nodes), 2)
        grace = 30.0  # floor: flat-scheme stragglers time out independently
        for node in self.nodes.values():
            cfg = node.config
            if hasattr(cfg, "relayed_timeout") and hasattr(cfg, "level_timeout"):
                grace = max(
                    grace,
                    cfg.relayed_timeout
                    + cfg.level_timeout(cfg.max_level)
                    + 2 * cfg.heartbeat_period,
                )
            bound = detection_bound(cfg, n, node.scheme)
            grace = max(grace, 2.0 * bound + 2.0 * cfg.heartbeat_period)
            break  # deployments are homogeneous; the first node suffices
        return grace

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def start(self, period: float = CHECK_PERIOD) -> None:
        """Run :meth:`tick` every ``period`` seconds of virtual time."""
        self._observe_lifecycles()
        self._timer = self.network.sim.call_every(period, self.tick)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def tick(self) -> None:
        """One checking pass: lifecycle bookkeeping + continuous invariants."""
        self._observe_lifecycles()
        self._check_resurrection()
        self._check_dual_leaders()

    # ------------------------------------------------------------------
    # Ground-truth bookkeeping
    # ------------------------------------------------------------------
    def _observe_lifecycles(self) -> None:
        """Record which (node, incarnation) lives are over, and since when.

        ``start()`` bumps the incarnation, so a dead pair never comes back:
        once a node is seen stopped — or seen running a *newer* incarnation
        — every record of the old pair is a record of a finished life.
        """
        now = self.network.now
        for nid, node in self.nodes.items():
            cur = (node.running, node.incarnation)
            prev = self._last_state.get(nid)
            if prev is not None and prev[0] and prev != cur:
                # Was running last tick; that life is over (crash or restart
                # happened between polls — `now` is a conservative late bound).
                self._life_ends.setdefault((nid, prev[1]), now)
            if not node.running:
                self._life_ends.setdefault((nid, node.incarnation), now)
            self._last_state[nid] = cur

    # ------------------------------------------------------------------
    # Invariant: no resurrection of buried incarnations
    # ------------------------------------------------------------------
    def _check_resurrection(self) -> None:
        now = self.network.now
        grace = self.zombie_grace
        for observer_id, observer in self.nodes.items():
            if not observer.running:
                continue
            for rec in observer.directory.records():
                if rec.node_id == observer_id:
                    continue
                died = self._life_ends.get((rec.node_id, rec.incarnation))
                if died is None or now - died <= grace:
                    continue
                key = (observer_id, rec.node_id, rec.incarnation)
                if key in self._flagged_zombies:
                    continue
                self._flagged_zombies.add(key)
                self.violations.append(
                    Violation(
                        now,
                        "resurrection",
                        f"{observer_id} still lists {rec.node_id}"
                        f"@inc{rec.incarnation}, dead since t={died:.1f}",
                    )
                )

    # ------------------------------------------------------------------
    # Invariant: no two mutually-visible leaders per level
    # ------------------------------------------------------------------
    def _leaders_by_level(self) -> Dict[int, List[str]]:
        out: Dict[int, List[str]] = {}
        for nid, node in self.nodes.items():
            if not node.running or not hasattr(node, "is_leader"):
                continue
            for level in node.levels():
                if node.is_leader(level):
                    out.setdefault(level, []).append(nid)
        return out

    def _mutually_visible(self, a: str, b: str, level: int, now: float) -> bool:
        topo = self.network.topo
        if not (topo.is_up(a) and topo.is_up(b)):
            return False
        node = self.nodes[a]
        ttl = node.config.ttl_for_level(level) if hasattr(node.config, "ttl_for_level") else level + 1
        dist = topo.ttl_distance(a, b)
        if dist == UNREACHABLE or dist > ttl:
            return False
        plan = self.network.fault_plan
        if plan is not None and plan.severed(a, b, now):
            return False
        return True

    def _check_dual_leaders(self) -> None:
        now = self.network.now
        seen: set = set()
        for level, leaders in self._leaders_by_level().items():
            if len(leaders) < 2:
                continue
            for a, b in combinations(sorted(leaders), 2):
                if not self._mutually_visible(a, b, level, now):
                    continue
                key = (level, a, b)
                seen.add(key)
                streak = self._dual_streaks.get(key, 0) + 1
                self._dual_streaks[key] = streak
                if streak == self.leader_streak:
                    self.violations.append(
                        Violation(
                            now,
                            "dual_leader",
                            f"level {level}: {a} and {b} both lead, mutually "
                            f"visible for {streak} checks",
                        )
                    )
        # Pairs that resolved reset their streak.
        for key in [k for k in self._dual_streaks if k not in seen]:
            del self._dual_streaks[key]

    # ------------------------------------------------------------------
    # Invariant: bounded false failures
    # ------------------------------------------------------------------
    def _on_record(self, rec: TraceRecord) -> None:
        if rec.kind != "member_down" or rec.node is None:
            return
        if rec.data.get("reason") == "leave":
            return  # graceful departure: immediate removal is the contract
        target = rec.data.get("target")
        node = self.nodes.get(target)
        if node is None or not node.running:
            return  # genuinely dead (or outside the watched deployment)
        topo = self.network.topo
        if not (topo.is_up(target) and topo.is_up(rec.node)):
            return
        if topo.ttl_distance(rec.node, target) == UNREACHABLE:
            return  # partitioned by a downed device: removal is correct
        plan = self.network.fault_plan
        if plan is not None and plan.severed(rec.node, target, rec.time):
            return  # severed by chaos rules: removal is correct
        self.false_failures.append(
            (rec.time, rec.node, target, rec.data.get("reason", ""))
        )

    def check_false_failures(self) -> List[Violation]:
        """Bounded-false-failure check (call at scenario end)."""
        out: List[Violation] = []
        if len(self.false_failures) > self.max_false_failures:
            out.append(
                Violation(
                    self.network.now,
                    "false_failures",
                    f"{len(self.false_failures)} false failures "
                    f"(bound {self.max_false_failures}); first: "
                    f"{self.false_failures[0]}",
                )
            )
        self.violations.extend(out)
        return out

    # ------------------------------------------------------------------
    # Invariant: eventual directory agreement
    # ------------------------------------------------------------------
    def check_agreement(self) -> List[Violation]:
        """Every running node's view equals the set of running nodes.

        Only meaningful after a quiet period (no active faults, all
        timeouts elapsed) — call it at scenario end, not mid-chaos.
        """
        now = self.network.now
        expected = {nid for nid, n in self.nodes.items() if n.running}
        out: List[Violation] = []
        for nid in sorted(expected):
            view = set(self.nodes[nid].view())
            missing = expected - view
            extra = view - expected
            if missing or extra:
                out.append(
                    Violation(
                        now,
                        "agreement",
                        f"{nid}: missing={sorted(missing)} extra={sorted(extra)}",
                    )
                )
        self.violations.extend(out)
        return out

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> Dict[str, object]:
        counts: Dict[str, int] = {}
        for v in self.violations:
            counts[v.invariant] = counts.get(v.invariant, 0) + 1
        return {
            "ok": self.ok,
            "violations": counts,
            "false_failures": len(self.false_failures),
        }
