"""Scripted failure scenarios.

Experiments inject failures exactly the way the paper did — "We kill the
membership service daemon process on a node to emulate the node failure"
(Section 6.4) — plus switch/router failures for network partitions and
timed recoveries for the Fig. 14 scenario.

A :class:`FailureSchedule` binds a :class:`~repro.net.network.Network` to a
registry of per-host *stacks* (any objects with ``start()``/``stop()`` —
membership protocol nodes, provider modules, proxies).  Crashing a host
stops its stacks and downs the device; recovery brings the device up and
restarts the stacks, which then re-join the protocol from scratch (the
bootstrap path).

Beyond the paper's clean crashes, the schedule also scripts the chaos
scenarios the robustness tooling targets (docs/FAULTS.md):

* :meth:`FailureSchedule.flap_device` — a flapping switch/router that
  partitions and heals its subtree on a cycle;
* :meth:`FailureSchedule.partition_at` — symmetric *or asymmetric*
  partitions realised as total directional loss on the network's
  :class:`~repro.net.faults.FaultPlan` (a downed device can only model the
  symmetric case);
* :meth:`FailureSchedule.schedule_chaos_storm` — a seeded randomized
  crash/recover storm, drawn entirely at scheduling time so runtime RNG
  streams are untouched.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Protocol, Tuple

if TYPE_CHECKING:
    from repro.net.faults import LinkFault
    from repro.net.network import Network

__all__ = ["FailureSchedule"]


class _Stack(Protocol):  # pragma: no cover - typing helper
    def start(self) -> None: ...

    def stop(self) -> None: ...


class FailureSchedule:
    """Time-triggered crash/recover actions against a network + stacks."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self._stacks: Dict[str, List[Any]] = defaultdict(list)
        self.log: List[tuple[float, str, str]] = []

    def register_stack(self, host: str, stack: Any) -> None:
        """Associate a protocol stack with its host for crash/restart."""
        self._stacks[host].append(stack)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def crash_node_at(self, time: float, host: str) -> None:
        """Kill ``host`` (daemon + NIC) at ``time``."""
        self.network.sim.call_at(time, self._crash, host)

    def recover_node_at(self, time: float, host: str) -> None:
        self.network.sim.call_at(time, self._recover, host)

    def fail_device_at(self, time: float, device: str) -> None:
        """Down a switch/router at ``time`` (network partition)."""
        self.network.sim.call_at(time, self._fail_device, device)

    def recover_device_at(self, time: float, device: str) -> None:
        self.network.sim.call_at(time, self._recover_device, device)

    def stop_service_at(self, time: float, host: str, stack: Any) -> None:
        """Stop one specific stack (service fails, host stays up)."""
        self.network.sim.call_at(time, self._stop_one, host, stack)

    def start_service_at(self, time: float, host: str, stack: Any) -> None:
        self.network.sim.call_at(time, self._start_one, host, stack)

    # ------------------------------------------------------------------
    # Chaos scheduling
    # ------------------------------------------------------------------
    def flap_device(
        self,
        device: str,
        first_down: float,
        down_for: float,
        up_for: float,
        until: float,
    ) -> int:
        """A flapping link: down/up cycles for ``device`` until ``until``.

        Each cycle downs the device at its start and recovers it
        ``down_for`` later; cycles repeat every ``down_for + up_for``
        seconds.  Returns the number of cycles scheduled.  A flapping
        switch is the classic convergence stress: the subtree behind it
        is repeatedly purged mid-recovery.
        """
        if down_for <= 0 or up_for <= 0:
            raise ValueError("down_for and up_for must both be positive")
        cycles = 0
        t = first_down
        while t < until:
            self.fail_device_at(t, device)
            self.recover_device_at(t + down_for, device)
            cycles += 1
            t += down_for + up_for
        return cycles

    def partition_at(
        self,
        time: float,
        side_a: Iterable[str],
        side_b: Iterable[str],
        heal_at: Optional[float] = None,
        symmetric: bool = True,
    ) -> List[LinkFault]:
        """Partition two host sets at ``time`` via total directional loss.

        Implemented as time-windowed :class:`~repro.net.faults.LinkFault`
        rules on the network's fault plan (created on demand), so
        ``symmetric=False`` gives the *asymmetric* case a downed device
        cannot express: ``side_a``'s packets toward ``side_b`` vanish
        while the reverse direction keeps flowing.  Heals at ``heal_at``
        (never, if ``None``).  Returns the installed rules.
        """
        side_a = sorted(side_a)
        side_b = sorted(side_b)
        plan = self.network.ensure_fault_plan()
        until = float("inf") if heal_at is None else heal_at
        rules = plan.partition(
            side_a, side_b, start=time, until=until, symmetric=symmetric
        )
        arrow = "<->" if symmetric else "->"
        desc = f"{'|'.join(side_a)}{arrow}{'|'.join(side_b)}"
        self.network.sim.call_at(time, self._note, "partition", desc)
        if heal_at is not None:
            self.network.sim.call_at(heal_at, self._note, "partition_heal", desc)
        return rules

    def schedule_chaos_storm(
        self,
        rng: random.Random,
        hosts: List[str],
        start: float,
        duration: float,
        events: int = 8,
        min_downtime: float = 5.0,
        max_downtime: float = 15.0,
        min_gap: float = 1.0,
    ) -> List[Tuple[float, str, float]]:
        """Schedule a seeded randomized crash/recover storm.

        Draws ``events`` (crash time, host, downtime) triples from ``rng``
        — uniformly over ``[start, start + duration)`` hosts and
        ``[min_downtime, max_downtime)`` downtimes — rejecting draws that
        would overlap (or come within ``min_gap`` of) an existing outage
        of the same host, so every crash hits a *running* stack and every
        recovery restarts a *stopped* one.  All randomness is consumed
        here, at scheduling time: the storm never perturbs the
        simulation's runtime RNG streams, and the same ``rng`` seed
        always yields the same storm.  Returns the storm, time-sorted.
        """
        if not hosts:
            raise ValueError("chaos storm needs at least one host")
        if max_downtime < min_downtime:
            raise ValueError("max_downtime < min_downtime")
        busy: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        storm: List[Tuple[float, str, float]] = []
        attempts = 0
        while len(storm) < events and attempts < events * 50:
            attempts += 1
            t = start + rng.random() * duration
            host = hosts[rng.randrange(len(hosts))]
            down = min_downtime + rng.random() * (max_downtime - min_downtime)
            lo, hi = t - min_gap, t + down + min_gap
            if any(b_lo < hi and lo < b_hi for b_lo, b_hi in busy[host]):
                continue
            busy[host].append((lo, hi))
            storm.append((t, host, down))
        storm.sort()
        for t, host, down in storm:
            self.crash_node_at(t, host)
            self.recover_node_at(t + down, host)
        return storm

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    def _crash(self, host: str) -> None:
        for stack in self._stacks.get(host, []):
            stack.stop()
        self.network.crash_host(host)
        self.log.append((self.network.now, "crash", host))

    def _recover(self, host: str) -> None:
        self.network.recover_host(host)
        for stack in self._stacks.get(host, []):
            stack.start()
        self.log.append((self.network.now, "recover", host))

    def _fail_device(self, device: str) -> None:
        self.network.fail_device(device)
        self.log.append((self.network.now, "device_fail", device))

    def _recover_device(self, device: str) -> None:
        self.network.recover_device(device)
        self.log.append((self.network.now, "device_recover", device))

    def _note(self, kind: str, desc: str) -> None:
        """Log marker for actions realised elsewhere (fault-plan rules)."""
        self.log.append((self.network.now, kind, desc))
        self.network.trace.emit(self.network.now, kind, scope=desc)

    def _stop_one(self, host: str, stack: Any) -> None:
        stack.stop()
        self.log.append((self.network.now, "service_stop", host))

    def _start_one(self, host: str, stack: Any) -> None:
        stack.start()
        self.log.append((self.network.now, "service_start", host))
