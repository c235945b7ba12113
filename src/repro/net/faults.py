"""Chaos fault-injection plans for the network fabrics.

The paper's evaluation only kills daemons and switches (Section 6.4); real
membership deployments additionally see *asymmetric* loss, delay jitter,
duplicated datagrams and reordering — the failure modes the related work
(Snow, arXiv:2504.2676; scalable group management, arXiv:1003.5794)
stresses broadcast protocols with.  A :class:`FaultPlan` injects exactly
those, per link and per direction, without touching protocol code: both
:class:`~repro.net.multicast.MulticastFabric` and
:class:`~repro.net.transport.UnicastTransport` consult the plan installed
on their :class:`~repro.net.network.Network` for every delivery they are
about to schedule.

Fault vocabulary (all per :class:`LinkFault` rule, all directional):

* ``loss`` — drop probability for a matched delivery.  ``1.0`` is legal
  and is the building block for **asymmetric partitions** (A's packets to
  B vanish while B's packets to A arrive).
* ``jitter`` — extra delivery delay drawn uniformly from ``[0, jitter)``.
* ``reorder`` / ``reorder_window`` — with probability ``reorder`` the
  delivery is held back an extra ``U[0, reorder_window)`` seconds, letting
  packets sent *later* overtake it: bounded reordering.
* ``duplicate`` / ``dup_lag`` — with probability ``duplicate`` the
  receiver gets a second copy, trailing the first by ``U[0, dup_lag)``.
* ``start`` / ``until`` — the rule only applies to packets *sent* inside
  this virtual-time window, so whole chaos phases can be scheduled
  declaratively (no timer events needed to arm/disarm faults).

Determinism contract
--------------------
All stochastic decisions draw from the plan's own seeded stream
(``net.chaos`` when installed through :meth:`Network.set_fault_plan`), a
stream the base loss process never touches.  Decisions are drawn once per
(packet, receiver) at **send time**, in the fabric's delivery-plan
(= subscription) order, so same-seed runs stay byte-identical (the
determinism guard's golden chaos hash pins the draw order under active
chaos).  A plan whose rules match nothing consumes no randomness
at all: installing it cannot perturb an existing seeded experiment.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["DEGRADED_LINK", "LinkFault", "FaultPlan"]

_INF = math.inf

#: The chaos runs' degraded link (network 1 -> network 2): Fig. 12's loss
#: regime plus jitter, bounded reordering and duplication.  The
#: :class:`LinkFault` fields it sets; the caller adds the hosts and the
#: active window.
DEGRADED_LINK: Mapping[str, float] = MappingProxyType({
    "loss": 0.2,
    "jitter": 0.05,
    "reorder": 0.3,
    "reorder_window": 0.2,
    "duplicate": 0.1,
    "dup_lag": 0.05,
})


def _normalize_side(side) -> Optional[frozenset]:
    """None (wildcard), one host name, or any iterable of host names."""
    if side is None:
        return None
    if isinstance(side, str):
        return frozenset((side,))
    return frozenset(side)


@dataclass
class LinkFault:
    """One directional fault rule: *who* it hits, *what* it does, *when*.

    ``src``/``dst`` each accept ``None`` (any host), a host name, or a
    collection of host names; a delivery matches when its sender is in
    ``src`` AND its receiver is in ``dst``.  Direction matters: a rule for
    ``(a, b)`` says nothing about ``(b, a)``.
    """

    src: Optional[frozenset] = None
    dst: Optional[frozenset] = None
    loss: float = 0.0
    jitter: float = 0.0
    reorder: float = 0.0
    reorder_window: float = 0.0
    duplicate: float = 0.0
    dup_lag: float = 0.0
    start: float = 0.0
    until: float = _INF
    #: free-form tag for logs/introspection ("partition:net0", ...)
    label: str = ""

    def __post_init__(self) -> None:
        self.src = _normalize_side(self.src)
        self.dst = _normalize_side(self.dst)
        for name in ("loss", "reorder", "duplicate"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        for name in ("jitter", "reorder_window", "dup_lag"):
            v = getattr(self, name)
            if v < 0.0:
                raise ValueError(f"{name} must be >= 0, got {v}")
        if self.reorder > 0.0 and self.reorder_window <= 0.0:
            raise ValueError("reorder > 0 requires a positive reorder_window")
        if self.until <= self.start:
            raise ValueError(f"empty active window [{self.start}, {self.until})")

    def matches(self, src: str, dst: str, now: float) -> bool:
        """Does this rule apply to a ``src -> dst`` delivery sent at ``now``?"""
        if not self.start <= now < self.until:
            return False
        if self.src is not None and src not in self.src:
            return False
        return self.dst is None or dst in self.dst

    def severs(self) -> bool:
        """True if this rule alone makes the link total-loss while active."""
        return self.loss >= 1.0


class FaultPlan:
    """An ordered set of :class:`LinkFault` rules plus the chaos RNG.

    Installed on a :class:`~repro.net.network.Network` via
    :meth:`~repro.net.network.Network.set_fault_plan`, which binds ``rng``
    to the dedicated ``net.chaos`` seeded stream if none was given.

    ``stats`` counts what the plan actually did (consults, drops,
    duplicates, delayed deliveries) — deterministic per seed, handy for
    chaos-sweep reports.
    """

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self.rng = rng
        self.rules: List[LinkFault] = []
        self.stats: Dict[str, int] = {
            "consults": 0,
            "drops": 0,
            "duplicates": 0,
            "delayed": 0,
        }

    # ------------------------------------------------------------------
    # Rule management
    # ------------------------------------------------------------------
    def add(self, fault: Optional[LinkFault] = None, **kwargs) -> LinkFault:
        """Append a rule (an existing :class:`LinkFault` or its kwargs)."""
        if fault is None:
            fault = LinkFault(**kwargs)
        elif kwargs:
            raise TypeError("pass either a LinkFault or kwargs, not both")
        self.rules.append(fault)
        return fault

    def extend(self, faults: Iterable[LinkFault]) -> None:
        for fault in faults:
            self.add(fault)

    def remove(self, fault: LinkFault) -> bool:
        """Remove one rule; returns False if it was not installed."""
        try:
            self.rules.remove(fault)
            return True
        except ValueError:
            return False

    def clear(self) -> None:
        self.rules.clear()

    def partition(
        self,
        side_a: Iterable[str],
        side_b: Iterable[str],
        start: float = 0.0,
        until: float = _INF,
        symmetric: bool = True,
        loss: float = 1.0,
        label: str = "partition",
    ) -> List[LinkFault]:
        """Partition two host sets by total (or partial) directional loss.

        ``symmetric=False`` severs only ``side_a -> side_b`` — the
        asymmetric case a real switch failure cannot produce but flaky
        NICs, unidirectional link faults and firewall mishaps do.
        Returns the rules added (hand them to :meth:`remove` to heal
        early; otherwise the ``until`` bound heals them).
        """
        a = _normalize_side(tuple(side_a))
        b = _normalize_side(tuple(side_b))
        if a & b:
            raise ValueError(f"partition sides overlap: {sorted(a & b)}")
        added = [
            self.add(
                LinkFault(src=a, dst=b, loss=loss, start=start, until=until, label=label)
            )
        ]
        if symmetric:
            added.append(
                self.add(
                    LinkFault(src=b, dst=a, loss=loss, start=start, until=until, label=label)
                )
            )
        return added

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.rules)

    def matching(self, src: str, dst: str, now: float) -> List[LinkFault]:
        return [r for r in self.rules if r.matches(src, dst, now)]

    def severed(self, a: str, b: str, now: float) -> bool:
        """Is either direction between ``a`` and ``b`` under total loss?

        Used by the invariant checker: a node removed across a severed
        link is correct protocol behaviour, not a false failure.
        """
        for rule in self.rules:
            if rule.severs() and (rule.matches(a, b, now) or rule.matches(b, a, now)):
                return True
        return False

    # ------------------------------------------------------------------
    # The fabric hook
    # ------------------------------------------------------------------
    def offsets(self, src: str, dst: str, now: float) -> Optional[Tuple[float, ...]]:
        """Fault decision for one ``src -> dst`` delivery sent at ``now``.

        Returns ``None`` when no rule matches (fabric takes its normal
        single-delivery path, **zero** randomness consumed), the empty
        tuple when the delivery is dropped, or the extra-delay offsets of
        every copy to schedule (first entry is the primary copy).
        Matched rules compose in insertion order; draws happen in a fixed
        per-rule order (loss, jitter, reorder, duplicate) so both fabric
        paths consume the chaos stream identically.
        """
        matched = [r for r in self.rules if r.matches(src, dst, now)]
        if not matched:
            return None
        rng = self.rng
        if rng is None:
            raise RuntimeError(
                "FaultPlan has no RNG bound; install it on a Network "
                "(set_fault_plan) or pass a seeded random.Random"
            )
        rand = rng.random
        stats = self.stats
        stats["consults"] += 1
        extra = 0.0
        lags: List[float] = []
        for rule in matched:
            if rule.loss > 0.0 and rand() < rule.loss:
                stats["drops"] += 1
                return ()
            if rule.jitter > 0.0:
                extra += rand() * rule.jitter
            if rule.reorder > 0.0 and rand() < rule.reorder:
                extra += rand() * rule.reorder_window
            if rule.duplicate > 0.0 and rand() < rule.duplicate:
                lags.append(rand() * rule.dup_lag if rule.dup_lag > 0.0 else 0.0)
        if extra > 0.0:
            stats["delayed"] += 1
        if not lags:
            return (extra,)
        stats["duplicates"] += len(lags)
        return (extra, *(extra + lag for lag in lags))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(rules={len(self.rules)}, stats={self.stats})"
