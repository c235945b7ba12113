"""Gossip-style membership (van Renesse, Minsky & Hayden, Middleware '98).

Each node keeps a heartbeat counter per member.  Every ``period`` it
increments its own counter and sends its full membership view to
``fanout`` randomly-chosen live peers; receivers merge counter-wise maxima.
A member whose counter has not increased for ``t_fail`` seconds is declared
failed; the entry is kept on a *dead list* until ``t_cleanup = 2 x t_fail``
so stale gossip cannot resurrect it.

Sizing ``t_fail``: with fanout 1, a counter increment reaches all *n*
members in ~``log2 n`` rounds w.h.p.; bounding the mistake probability by
``p_mistake`` needs extra safety rounds, giving

    ``t_fail = period * (log2 n + log2 (1 / p_mistake) * safety)``

(:func:`gossip_fail_time`).  This reproduces the two properties the paper
measures: detection time grows **logarithmically** with cluster size
(Fig. 12) and each gossip message carries the whole view, ``n x s`` bytes,
so aggregate bandwidth grows **quadratically** (Fig. 11).  Convergence is
slower than detection because every node times the failure out
independently, spread by the propagation of the last counter increments
(Fig. 13).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.detect import detection_bound, handle_probe_packet
from repro.net.packet import Packet
from repro.protocols.base import MembershipNode

__all__ = [
    "GossipNode",
    "gossip_fail_time",
    "GOSSIP_PORT",
    "GOSSIP_DETECT_PORT",
    "GOSSIP_SCOPE",
]

GOSSIP_PORT = "gossip"

#: Unicast port for active-detector probe traffic (bound only when the
#: configured strategy probes).
GOSSIP_DETECT_PORT = "gossip-detect"

#: The scheme's single liveness scope.
GOSSIP_SCOPE = "gossip"


def gossip_fail_time(
    n: int,
    period: float = 1.0,
    p_mistake: float = 0.001,
    safety: float = 0.5,
) -> float:
    """Failure-declaration threshold for an *n*-member gossip group.

    See the module docstring; ``safety`` scales the extra rounds bought by
    the mistake-probability bound (0.5 matches the loose 0.1% requirement
    the paper grants the gossip baseline).
    """
    if n < 2:
        return period * 2
    rounds = math.log2(n) + safety * math.log2(1.0 / p_mistake)
    return period * rounds


class GossipNode(MembershipNode):
    """One node of the gossip scheme.

    Parameters
    ----------
    seeds:
        Initial member list (the paper's broadcast-based discovery is
        "eliminated under optimization", so nodes start from a seed list,
        as real deployments do).
    """

    scheme = "gossip"

    def __init__(self, *args, seeds: Sequence[str] = (), **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.seeds = [s for s in seeds if s != self.node_id]
        # member -> heartbeat counter.  The *time of last counter
        # increase* — gossip's freshness evidence — lives in the failure
        # detector (scope :data:`GOSSIP_SCOPE`): the merge path reports
        # every increase via ``observe_heartbeat``.
        self._counters: Dict[str, int] = {}
        # dead list: member -> counter at declaration (anti-resurrection)
        self._dead: Dict[str, int] = {}
        self._dead_since: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Derived thresholds
    # ------------------------------------------------------------------
    @property
    def t_fail(self) -> float:
        n = max(len(self._counters), len(self.seeds) + 1, 2)
        return gossip_fail_time(
            n,
            self.config.heartbeat_period,
            self.config.gossip_mistake_prob,
        )

    @property
    def t_cleanup(self) -> float:
        # The dead list must outlive the *slowest* declaring node or a
        # straggler's stale counters resurrect the victim cluster-wide.
        # Under the counter strategy the detector bound IS t_fail (same
        # formula), so this stays 2 x t_fail byte-for-byte; adaptive
        # detectors stretch the quarantine to their advertised bound.
        n = max(len(self._counters), len(self.seeds) + 1, 2)
        return 2.0 * max(self.t_fail, detection_bound(self.config, n, "gossip"))

    # ------------------------------------------------------------------
    # Failure-detection seam
    # ------------------------------------------------------------------
    def _wire_detector(self) -> None:
        from repro.detect import UnicastProber

        self.detector.attach(
            prober=UnicastProber(self.runtime, GOSSIP_DETECT_PORT),
            members=self._probe_candidates,
        )

    def _probe_candidates(self) -> List[str]:
        pool = set(self._counters) | set(self.seeds)
        pool.discard(self.node_id)
        pool.difference_update(self._dead)
        return sorted(pool)

    def _on_probe(self, packet: Packet) -> None:
        if not self.running:
            return
        handle_probe_packet(self.runtime, self.detector, packet, GOSSIP_DETECT_PORT)

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def _reset_run_state(self) -> None:
        self._counters = {self.node_id: 0}
        self.detector.observe_heartbeat(GOSSIP_SCOPE, self.node_id, self.runtime.now)
        self._dead.clear()
        self._dead_since.clear()

    def _on_start(self) -> None:
        self.runtime.bind(GOSSIP_PORT, self._on_packet)
        if self.detector.uses_probes:
            self.runtime.bind(GOSSIP_DETECT_PORT, self._on_probe)
        phase = self.rng.uniform(0, self.config.heartbeat_period)
        self.runtime.call_every(
            self.config.heartbeat_period, self._gossip_tick, first_delay=phase
        )

    def _on_stop(self) -> None:
        self.runtime.unbind(GOSSIP_PORT)
        if self.detector.uses_probes:
            self.runtime.unbind(GOSSIP_DETECT_PORT)
        self._counters.clear()

    # ------------------------------------------------------------------
    # Gossip round
    # ------------------------------------------------------------------
    def _gossip_tick(self) -> None:
        if not self.running:
            return
        now = self.runtime.now
        self._counters[self.node_id] += 1
        self.detector.observe_heartbeat(GOSSIP_SCOPE, self.node_id, now)
        self._expire(now)
        targets = self._pick_targets()
        if targets:
            view = {
                nid: (self._counters[nid], self.directory.get(nid))
                for nid in self._counters
            }
            size = self.config.message_size(len(view))
            for target in targets:
                self.runtime.send(
                    target,
                    kind="gossip",
                    payload={"view": view, "sender": self.node_id},
                    size=size,
                    port=GOSSIP_PORT,
                )

    def _pick_targets(self) -> List[str]:
        # Known members plus the configured seed list: gossiping only to
        # already-known peers can partition the epidemic into cliques.
        # Declared-dead members are excluded until they provably return.
        pool = set(self._counters) | set(self.seeds)
        pool.discard(self.node_id)
        pool.difference_update(self._dead)
        candidates = sorted(pool)
        if not candidates:
            return []
        k = min(self.config.gossip_fanout, len(candidates))
        return self.rng.sample(candidates, k)

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        if not self.running or packet.kind != "gossip":
            return
        now = self.runtime.now
        for nid, (counter, record) in packet.payload["view"].items():
            if nid == self.node_id:
                continue
            dead_counter = self._dead.get(nid)
            if dead_counter is not None and counter <= dead_counter:
                continue  # stale news about a node we already declared dead
            if dead_counter is not None:
                # Node genuinely came back (higher counter than at death).
                del self._dead[nid]
                self._dead_since.pop(nid, None)
            known = self._counters.get(nid)
            if known is None or counter > known:
                is_new = nid not in self.directory
                self._counters[nid] = counter
                # A counter increase is gossip's heartbeat observation.
                self.detector.observe_heartbeat(
                    GOSSIP_SCOPE,
                    nid,
                    now,
                    record.incarnation if record is not None else 0,
                )
                if record is not None:
                    self.directory.upsert(record, now)
                    self.directory.refresh(nid, now)
                if is_new and nid in self.directory:
                    self._emit_member_up(nid)

    # ------------------------------------------------------------------
    # Failure declaration
    # ------------------------------------------------------------------
    def _expire(self, now: float) -> None:
        t_fail = self.t_fail
        # Candidate order mirrors the pre-refactor scan (counter-map
        # insertion order minus self); with the counter strategy the
        # verdicts — and thus the traces — are byte-identical.
        candidates = [nid for nid in self._counters if nid != self.node_id]
        for nid in self.detector.silent_ids(GOSSIP_SCOPE, candidates, now, t_fail):
            self._dead[nid] = self._counters.pop(nid)
            self._dead_since[nid] = now
            self.detector.forget(nid, GOSSIP_SCOPE)
            if self.directory.remove(nid):
                self._emit_member_down(nid)
        t_cleanup = self.t_cleanup
        for nid in list(self._dead):
            if now - self._dead_since[nid] > t_cleanup:
                del self._dead[nid]
                del self._dead_since[nid]
