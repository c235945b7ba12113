"""The all-to-all multicast membership scheme.

Neptune's original design for small clusters (Section 2): "every node
periodically send[s] its heartbeats to other nodes and collect[s]
heartbeats from other nodes... Every node builds its own membership
directory based on these heartbeat packets."

Each heartbeat carries the sender's full member description (service info +
machine attributes, 228 bytes) and is multicast with a TTL large enough to
cover the whole cluster.  A peer is purged after ``max_loss`` consecutive
missed heartbeats.  Detection is therefore a constant ``~max_loss x
period`` regardless of cluster size, but every node receives ``n - 1``
packets per period — the O(n²) aggregate traffic of Fig. 2/Fig. 11.
"""

from __future__ import annotations

from typing import List

from repro.detect import handle_probe_packet
from repro.net.packet import Packet
from repro.protocols.base import MembershipNode

__all__ = ["AllToAllNode", "ALL_CHANNEL", "ALL_DETECT_PORT", "ALL_SCOPE"]

#: The single cluster-wide multicast channel.
ALL_CHANNEL = "all-to-all"

#: Unicast port for active-detector probe traffic (bound only when the
#: configured strategy probes; the default counter sends nothing).
ALL_DETECT_PORT = "a2a-detect"

#: The scheme's single liveness scope (it has no channel levels).
ALL_SCOPE = "all"


class AllToAllNode(MembershipNode):
    """One node of the all-to-all scheme."""

    scheme = "all-to-all"

    # ------------------------------------------------------------------
    # Failure-detection seam
    # ------------------------------------------------------------------
    def _wire_detector(self) -> None:
        from repro.detect import UnicastProber

        self.detector.attach(
            prober=UnicastProber(self.runtime, ALL_DETECT_PORT),
            members=self._probe_candidates,
        )

    def _probe_candidates(self) -> List[str]:
        return [nid for nid in self.directory.members() if nid != self.node_id]

    def _on_probe(self, packet: Packet) -> None:
        if not self.running:
            return
        handle_probe_packet(self.runtime, self.detector, packet, ALL_DETECT_PORT)

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def _on_start(self) -> None:
        self.runtime.subscribe(ALL_CHANNEL, self._on_packet)
        if self.detector.uses_probes:
            self.runtime.bind(ALL_DETECT_PORT, self._on_probe)
        # Desynchronise senders like real daemons started at different
        # moments; the offset is deterministic per (seed, node).
        phase = self.rng.uniform(0, self.config.heartbeat_period)
        self.runtime.call_every(
            self.config.heartbeat_period, self._heartbeat_tick, first_delay=phase
        )
        self.runtime.call_every(self.config.heartbeat_period, self._check_tick)

    def _on_stop(self) -> None:
        self.runtime.unsubscribe(ALL_CHANNEL)
        if self.detector.uses_probes:
            self.runtime.unbind(ALL_DETECT_PORT)

    # ------------------------------------------------------------------
    # Announcer: periodic heartbeat multicast
    # ------------------------------------------------------------------
    def _heartbeat_tick(self) -> None:
        if not self.running:
            return
        self.runtime.publish(
            ALL_CHANNEL,
            ttl=self.config.max_ttl,
            kind="heartbeat",
            payload=self.self_record(),
            size=self.config.message_size(1),
        )

    # ------------------------------------------------------------------
    # Receiver
    # ------------------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        if not self.running or packet.kind != "heartbeat":
            return
        record = packet.payload
        now = self.runtime.now
        is_new = record.node_id not in self.directory
        self.directory.upsert(record, now)
        self.directory.refresh(record.node_id, now)
        det = self.detector
        if not det.passive:
            det.observe_heartbeat(ALL_SCOPE, record.node_id, now, record.incarnation)
        if is_new:
            self._emit_member_up(record.node_id)

    # ------------------------------------------------------------------
    # Status tracker: purge silent peers
    # ------------------------------------------------------------------
    def _check_tick(self) -> None:
        if not self.running:
            return
        # The counter strategy delegates straight to the directory's
        # deadline-heap purge (the pre-refactor call, byte-identical);
        # active strategies judge the member list themselves.
        dead = self.detector.purge_directory(
            ALL_SCOPE, self.directory, self.runtime.now, self.config.fail_timeout
        )
        for node_id in dead:
            self._emit_member_down(node_id)

    def _self_changed(self) -> None:
        super()._self_changed()
        if self.running:
            # Push the change immediately instead of waiting a period.
            self.runtime.publish(
                ALL_CHANNEL,
                ttl=self.config.max_ttl,
                kind="heartbeat",
                payload=self.self_record(),
                size=self.config.message_size(1),
            )
