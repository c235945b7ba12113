"""Interest-scoped load-information dissemination.

The membership protocol deliberately excludes frequently-changing load
("Dynamic information such as workload is not covered by the membership
protocol itself"); the paper sketches the extension this module builds:
"the protocol can propagate load information only to interested nodes
which have recently seeked the service from the service node"
(Section 6.1).

* :class:`LoadReporter` sits on a provider node.  Consumers become
  *interested* when they send a request and stay interested for
  ``interest_ttl`` seconds; the reporter pushes small load reports to
  exactly that set every ``report_period``.
* :class:`LoadTracker` sits on a consumer node, caches the freshest load
  figure per server, and expires stale entries.
* :class:`LoadAwareBalancer` is a drop-in
  :class:`~repro.cluster.loadbalance.LoadBalancer` that dispatches to the
  least-loaded candidate using the tracker's cache — no per-request
  polling round at all, trading the random-polling RTT for slightly
  staler load data.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.cluster.loadbalance import LoadBalancer
from repro.cluster.provider import ProviderModule
from repro.runtime import NodeRuntime

if TYPE_CHECKING:
    from repro.net.packet import Packet

__all__ = ["LoadReporter", "LoadTracker", "LoadAwareBalancer", "LOADINFO_PORT"]

LOADINFO_PORT = "loadinfo"
REPORT_SIZE = 64


class LoadReporter:
    """Publishes a provider's load to recently-interested consumers.

    ``runtime`` is the reporter's own, on the provider's host.
    """

    def __init__(
        self,
        runtime: NodeRuntime,
        provider: ProviderModule,
        report_period: float = 0.5,
        interest_ttl: float = 10.0,
    ) -> None:
        self.runtime = runtime
        self.provider = provider
        self.report_period = report_period
        self.interest_ttl = interest_ttl
        self._interested: Dict[str, float] = {}  # consumer -> expiry
        self.reports_sent = 0

    def start(self) -> None:
        if self.runtime.active:
            return
        self.runtime.activate()
        self.provider.request_observer = self._on_request
        self.runtime.call_once(self.report_period, self._tick)

    def stop(self) -> None:
        if not self.runtime.active:
            return
        self.runtime.deactivate()
        if self.provider.request_observer == self._on_request:
            self.provider.request_observer = None
        self._interested.clear()

    # ------------------------------------------------------------------
    def _on_request(self, consumer: str, _service: str) -> None:
        self._interested[consumer] = self.runtime.now + self.interest_ttl

    def interested(self) -> list[str]:
        """Consumers currently on the interest list (sorted)."""
        now = self.runtime.now
        return sorted(c for c, until in self._interested.items() if until > now)

    def _tick(self) -> None:
        now = self.runtime.now
        for consumer in [c for c, until in self._interested.items() if until <= now]:
            del self._interested[consumer]
        payload = {"server": self.runtime.node_id, "load": self.provider.load, "time": now}
        for consumer in sorted(self._interested):
            self.runtime.send(
                consumer,
                kind="load_report",
                payload=payload,
                size=REPORT_SIZE,
                port=LOADINFO_PORT,
            )
            self.reports_sent += 1
        self.runtime.call_once(self.report_period, self._tick)


class LoadTracker:
    """Consumer-side cache of pushed load reports (own ``runtime``, consumer's host)."""

    def __init__(self, runtime: NodeRuntime, staleness: float = 3.0) -> None:
        self.runtime = runtime
        self.staleness = staleness
        self._loads: Dict[str, Tuple[int, float]] = {}

    def start(self) -> None:
        if self.runtime.active:
            return
        self.runtime.activate()
        self.runtime.bind(LOADINFO_PORT, self._on_packet)

    def stop(self) -> None:
        if not self.runtime.active:
            return
        self.runtime.deactivate()
        self.runtime.unbind(LOADINFO_PORT)
        self._loads.clear()

    def _on_packet(self, packet: "Packet") -> None:
        if packet.kind != "load_report":
            return
        payload = packet.payload
        self._loads[payload["server"]] = (payload["load"], self.runtime.now)

    def load_of(self, server: str) -> Optional[int]:
        """Freshest known load, or None if unknown/stale."""
        entry = self._loads.get(server)
        if entry is None:
            return None
        load, when = entry
        if self.runtime.now - when > self.staleness:
            del self._loads[server]
            return None
        return load

    def known_servers(self) -> list[str]:
        return sorted(s for s in list(self._loads) if self.load_of(s) is not None)


class LoadAwareBalancer(LoadBalancer):
    """Least-loaded dispatch from the tracker's cache (no poll round)."""

    polls = False

    def __init__(self, tracker: LoadTracker) -> None:
        self.tracker = tracker

    def choose(self, candidates: Sequence[str], rng: random.Random) -> str:
        if not candidates:
            raise ValueError("no candidates")
        known = [(self.tracker.load_of(c), c) for c in candidates]
        with_load = [(load, c) for load, c in known if load is not None]
        if not with_load:
            return candidates[rng.randrange(len(candidates))]
        best = min(load for load, _c in with_load)
        tied = sorted(c for load, c in with_load if load == best)
        # Unknown candidates are tried occasionally so they enter the cache.
        unknown = [c for load, c in known if load is None]
        if unknown and rng.random() < len(unknown) / (len(candidates) * 2):
            return unknown[rng.randrange(len(unknown))]
        return tied[rng.randrange(len(tied))]
