"""Receiver role: channel and unicast dispatch (Fig. 10).

The receiver demultiplexes everything that arrives at the node — one
handler closure per joined channel plus the ``hmember`` unicast port —
and absorbs heartbeats, including the protocol hot-path engine's
identity-based no-change fast path.  Updates are handed to the
:class:`~repro.core.roles.informer.Informer`; election-relevant
observations poke the :class:`~repro.core.roles.contender.Contender`.

Observability: ``hb_rx``, ``hb_rx_fast`` and ``sync_resps`` increment
here and nowhere else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.directory import FRESH, RELAYER
from repro.core.updates import UpdateOp
from repro.detect import handle_probe_packet

if TYPE_CHECKING:
    from repro.core.heartbeat import Heartbeat
    from repro.net.packet import Packet
    from repro.runtime.ports import PacketHandler
    from repro.core.roles.context import NodeContext

__all__ = ["Receiver", "HMEMBER_PORT"]

#: The hierarchical protocol's unicast port (sync requests/responses).
HMEMBER_PORT = "hmember"


class Receiver:
    """Dispatches deliveries into the other roles."""

    def __init__(self, ctx: "NodeContext") -> None:
        self.ctx = ctx

    def channel_handler(self, level: int) -> "PacketHandler":
        # Flat dispatch: one closure frame per delivery instead of three.
        # Heartbeats dominate steady-state receive traffic, so the kind
        # test orders them first.
        #
        # The no-change fast path lives inline here; everything else
        # goes to on_heartbeat.  Receives are the simulator's hottest
        # path at 10k nodes, and every captured local below replaces a
        # chain of per-delivery attribute loads through objects long
        # since evicted from cache.  Handlers are rebuilt on every
        # channel join, and all captured objects live for the context's
        # lifetime and are only ever mutated in place.
        ctx = self.ctx
        node = ctx.node
        groups = ctx.groups
        on_heartbeat = self.on_heartbeat
        runtime = ctx.runtime
        directory = ctx.directory
        offset_of, cells = directory.cell_access()
        refresh = directory.refresh
        vouch = directory.vouch
        tombstones = ctx.tombstones
        stream = ctx.updates.level_stream(level)
        maybe_sync = ctx.maybe_sync
        evaluate = ctx.contender.evaluate
        relay_level = level >= 1
        # Pre-resolve the detector observation hook: the default counter
        # strategy is passive (group freshness stamps are its evidence),
        # so the hot path pays a single None test for pluggability.
        detector = ctx.detector
        observe_hb = None if detector.passive else detector.observe_heartbeat

        def handler(packet: "Packet") -> None:
            if not node.running or level not in groups:
                return
            kind = packet.kind
            if kind == "heartbeat":
                hb = packet.payload
                group = groups[level]
                nid = hb.record.node_id
                peer = group.peers.get(nid)
                # No-change match: identity when the payload travelled
                # by reference (simulator), content otherwise (wire) —
                # never identity alone, which a serialization
                # round-trip silently breaks.
                if peer is not None and (
                    hb is peer.last_hb
                    or (peer.last_hb is not None and hb.same_as(peer.last_hb))
                ):
                    # The directory's index spans the whole cluster, so
                    # its per-heartbeat probe is the one cache-hostile
                    # lookup left on this path at 10k nodes: use the
                    # offset cached on the peer, re-probing only when the
                    # key cell no longer names this peer (removed, or the
                    # cells reused for another node).
                    off = peer.dir_offset
                    if off is None or cells[off] != nid:
                        off = offset_of(nid)
                        peer.dir_offset = off
                    if off is not None:
                        # The sender interned this payload, so nothing
                        # about the peer moved since its last heartbeat.
                        # Freshness is bumped (peer + directory + vouch),
                        # the failover/lost-update checks still run (they
                        # depend on *our* state, not the sender's), and
                        # record absorption is skipped entirely.
                        now = runtime.now
                        if cells[off + RELAYER] is None:
                            cells[off + FRESH] = now
                        else:
                            # Heard directly: reclassify via the full
                            # refresh so the relayer-count and
                            # deadline-heap bookkeeping run.
                            refresh(nid, now, relayed_by=None)
                        obs = runtime.obs
                        obs.hb_rx.inc()
                        obs.hb_rx_fast.inc()
                        if tombstones:
                            tombstones.pop(nid, None)
                        peer.last_heard = now
                        if observe_hb is not None:
                            observe_hb(level, nid, now, peer.incarnation)
                        if hb.is_leader:
                            vouch(nid, now)
                            if (
                                group.last_dead_leader is not None
                                and group.last_dead_leader != nid
                            ):
                                directory.reattribute(
                                    group.last_dead_leader, nid
                                )
                                group.last_dead_leader = None
                        elif relay_level:
                            vouch(nid, now)
                        seq = hb.update_seq
                        if seq > 0:
                            last = stream.get(nid)
                            if last is None or last < seq:
                                maybe_sync(nid)
                        # Election re-evaluation is skipped only while a
                        # leader is in sight and we are not one ourselves
                        # — the one configuration where an unchanged
                        # heartbeat provably cannot move the election
                        # clock (the leaderless countdown and the
                        # two-leaders rule both need a state change or
                        # our own flag, and those route through
                        # on_heartbeat or the status tick).
                        if group.i_am_leader or not group.leader_visible():
                            evaluate(level)
                        return
                on_heartbeat(hb, level)
            elif kind == "update":
                ctx.informer.on_update(packet.payload, level)

        return handler

    # ------------------------------------------------------------------
    # Multicast: heartbeats
    # ------------------------------------------------------------------
    def on_heartbeat(self, hb: "Heartbeat", level: int) -> None:
        """Full absorb of a heartbeat the inline no-change match declined."""
        ctx = self.ctx
        group = ctx.groups[level]
        now = ctx.runtime.now
        ctx.runtime.obs.hb_rx.inc()
        was_known = hb.node_id in group.peers
        # Hearing a node directly is proof of life: clear any certificate.
        ctx.tombstones.pop(hb.node_id, None)
        peer_is_new = group.note_heartbeat(hb, now)
        det = ctx.detector
        if not det.passive:
            det.observe_heartbeat(level, hb.node_id, now, hb.record.incarnation)
        newly_in_directory = hb.node_id not in ctx.directory
        ctx.directory.upsert(hb.record, now)
        ctx.directory.refresh(hb.node_id, now, relayed_by=None)
        if hb.is_leader or level >= 1:
            # An alive relay point keeps everything it relayed alive: the
            # flag-flying leader of this group, or any participant of a
            # level >= 1 channel (who is by construction the representative
            # of some lower-level subtree).
            ctx.directory.vouch(hb.node_id, now)
        if hb.is_leader:
            if group.last_dead_leader is not None and group.last_dead_leader != hb.node_id:
                # Failover completed: the new leader inherits the dead
                # leader's vouched entries.
                ctx.directory.reattribute(group.last_dead_leader, hb.node_id)
                group.last_dead_leader = None
        if newly_in_directory:
            ctx.emit_member_up(hb.node_id)
        if peer_is_new and ctx.is_relay_point():
            # "A group leader will also inform all other groups when a new
            # node joins" — any relay point announces a newly-heard direct
            # peer to the rest of its channels; covers first joins,
            # restarts (higher incarnation counts as new), and peers
            # returning after a healed partition.
            ctx.informer.originate(
                [UpdateOp("add", hb.node_id, hb.record.incarnation, hb.record)]
            )
        if not was_known:
            # Bootstrap triggers: a group leader pulls a newcomer's state;
            # a newcomer pulls the leader's state when it spots the flag.
            if group.i_am_leader or hb.is_leader:
                ctx.maybe_sync(hb.node_id)
        elif ctx.updates.behind(hb.node_id, level, hb.update_seq):
            # The heartbeat advertises updates we never received (the lost
            # packet was the sender's last): poll for a directory sync.
            # The stream is marked caught-up only when the response lands.
            ctx.maybe_sync(hb.node_id)
        # React immediately to leader conflicts/appearance.
        ctx.contender.evaluate(level)

    # ------------------------------------------------------------------
    # Unicast: the sync protocol's wire face
    # ------------------------------------------------------------------
    def on_unicast(self, packet: "Packet") -> None:
        ctx = self.ctx
        if not ctx.node.running:
            return
        if packet.kind == "sync_req":
            ctx.informer.merge_snapshot(packet.payload["snapshot"], via=packet.src)
            snapshot = [r for r in ctx.directory.records() if r.node_id != packet.src]
            seqs = {level: ctx.updates.current_seq(level) for level in ctx.groups}
            ctx.runtime.send(
                packet.src,
                kind="sync_resp",
                payload={"snapshot": snapshot, "seqs": seqs},
                size=ctx.config.message_size(max(1, len(snapshot))),
                port=HMEMBER_PORT,
            )
        elif packet.kind == "sync_resp":
            ctx.runtime.obs.sync_resps.inc()
            ctx.pending_syncs.discard(packet.src)
            ctx.informer.merge_snapshot(
                packet.payload["snapshot"], via=packet.src, prune_relayer=True
            )
            # The snapshot subsumes every update the sender ever sent: mark
            # its streams caught-up (only now — a lost response must leave
            # us "behind" so the next heartbeat retriggers the poll).
            for level, seq in packet.payload.get("seqs", {}).items():
                if level in ctx.groups:
                    ctx.updates.note_synced(packet.src, level, seq)
        else:
            # Probe traffic (active detectors) rides the same unicast port
            # so the scheme needs no extra bind; zero traffic otherwise.
            handle_probe_packet(
                ctx.runtime, ctx.detector, packet, HMEMBER_PORT, ctx.config.header_size
            )
