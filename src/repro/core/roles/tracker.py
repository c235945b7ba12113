"""Status Tracker role: deadline purges and death handling (Fig. 10).

Once per heartbeat period the tracker retries unfinished sync exchanges,
purges silent direct peers per-level, re-evaluates every election clock,
and runs the two directory backstops (stale relayed entries, orphaned
direct entries).  Those backstops are deadline-heap pops (amortised
O(1) in a quiet period), not full directory scans.

Death handling implements the paper's timeout protocol — "membership
information that is relayed by the dead node is also timeouted" — plus
the backup fast path and the abdication-vs-death distinction
(:meth:`Tracker.freshly_heard`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.core.updates import UpdateOp

if TYPE_CHECKING:
    from repro.core.groups import PeerState
    from repro.core.roles.context import NodeContext

__all__ = ["Tracker"]


class Tracker:
    """Watches deadlines and turns silence into removals."""

    def __init__(self, ctx: "NodeContext") -> None:
        self.ctx = ctx

    def check_tick(self) -> None:
        ctx = self.ctx
        if not ctx.node.running:
            return
        now = ctx.now
        # Death certificates past their quarantine protect nothing
        # (Informer.tombstoned's predicate): drop them, so an id that never
        # returns does not keep one forever.
        tombstones = ctx.tombstones
        if tombstones:
            quarantine = ctx.config.tombstone_quarantine
            expired = [
                nid
                for nid, (_inc, when) in tombstones.items()
                if now - when > quarantine
            ]
            for nid in expired:
                del tombstones[nid]
        # Retry unfinished sync exchanges (the rate limiter paces them).
        if ctx.pending_syncs:
            for peer in sorted(ctx.pending_syncs):
                ctx.maybe_sync(peer)
        det = ctx.detector
        for level in ctx.levels:
            group = ctx.groups.get(level)
            if group is None:
                continue  # removed by a step-down earlier in this tick
            timeout = ctx.config.level_timeout(level)
            # The strategy judges, the group bookkeeps: with the default
            # counter detector this is purge_silent verbatim (same
            # predicate, same iteration order).
            dead = det.silent_peers(level, group, now, timeout)
            if dead:
                group.purge_peers(dead)
            for peer in dead:
                self.handle_peer_death(level, peer)
        for level in ctx.levels:
            if level in ctx.groups:
                ctx.contender.evaluate(level)
        # Backstop: relayed entries nobody has vouched for in a long time.
        incs: Dict[str, int] = {}
        purged: List[UpdateOp] = []
        for nid in ctx.directory.purge_stale_relayed(
            now, ctx.config.relayed_timeout, incarnations=incs
        ):
            purged.append(UpdateOp("remove", nid, incs.get(nid, 0)))
            ctx.informer.bury(nid, incs.get(nid, 0))
            ctx.emit_member_down(nid, reason="relayed_timeout")
        # Safety net for orphaned direct entries (no live channel refreshes
        # them); generous so it never races real per-level detection.
        safety = ctx.config.level_timeout(ctx.config.max_level) + ctx.config.fail_timeout
        for nid in ctx.directory.purge_stale(now, safety, incarnations=incs):
            purged.append(UpdateOp("remove", nid, incs.get(nid, 0)))
            ctx.informer.bury(nid, incs.get(nid, 0))
            ctx.emit_member_down(nid, reason="orphan_timeout")
        if purged and ctx.is_relay_point():
            # A relay point's heartbeats implicitly vouch for everything it
            # ever attributed to itself in its members' directories — so a
            # silent backstop purge here would leave the subtree holding
            # the dropped entries *forever* (vouching keeps them fresh and
            # no remove rumor ever arrives).  Originate the removals just
            # like the peer-death cascade does.
            ctx.informer.originate(purged)

    def freshly_heard(self, node_id: str, now: float) -> bool:
        """Still a direct peer on some channel, heard within ``fail_timeout``.

        Distinguishes *abdication* from *death* when a peer goes silent on
        one channel: a leader that steps down abandons its upper channels
        but keeps heartbeating below, so its entry there is fresh; a dead
        node is stale on every channel it was heard on (the lower levels
        purge first, leaving only entries at least ``fail_timeout`` old).
        """
        ctx = self.ctx
        for lv in ctx.levels:
            entry = ctx.groups[lv].peers.get(node_id)
            if entry is not None and now - entry.last_heard <= ctx.config.fail_timeout:
                return True
        return False

    def handle_peer_death(self, level: int, peer: "PeerState") -> None:
        ctx = self.ctx
        group = ctx.groups[level]
        now = ctx.now
        ctx.detector.forget(peer.node_id, level)

        if peer.is_leader:
            group.last_dead_leader = peer.node_id
            if peer.backup == ctx.node_id and not group.i_am_leader:
                # Backup fast path: immediate takeover, no election delay.
                ctx.directory.reattribute(peer.node_id, ctx.node_id)
                group.last_dead_leader = None
                ctx.contender.become_leader(level)
            elif peer.backup is not None and peer.backup in group.peers:
                # The designated backup is alive; expect it to take over and
                # inherit the vouched entries right away.
                ctx.directory.reattribute(peer.node_id, peer.backup)
                group.last_dead_leader = None

        if self.freshly_heard(peer.node_id, now):
            # Silent on *this* channel but alive on another: a leader
            # stepping down leaves the upper channels, it did not die.
            # The group-local failover bookkeeping above still applies
            # (this group genuinely lost its flag-flier); the directory
            # entry and everything it vouches for stay — removing them
            # here declared live nodes dead cluster-wide after every
            # step-down that outlived a higher-level timeout.
            if peer.node_id == group.my_backup:
                group.my_backup = ctx.contender.pick_backup(group)
            return
        ctx.updates.forget_sender(peer.node_id)
        ctx.pending_syncs.discard(peer.node_id)
        # What did the dead peer vouch for?  (Must be computed before the
        # purge below.)  Reported upward/downward by relay-point nodes so
        # whole-subtree failures (switch partitions) propagate quickly.
        # Capture the incarnations we know before purging, so the remove
        # ops carry guards that match what other nodes have.
        relayed_incs = {
            nid: rec.incarnation
            for nid in ctx.directory.relayed_entries(peer.node_id)
            if (rec := ctx.directory.get(nid)) is not None
        }
        removed = []
        if ctx.directory.remove(peer.node_id):
            removed.append(UpdateOp("remove", peer.node_id, peer.incarnation))
            ctx.informer.bury(peer.node_id, peer.incarnation)
            ctx.emit_member_down(peer.node_id)
        # Timeout protocol: "membership information that is relayed by the
        # dead node is also timeouted."
        for nid in ctx.directory.purge_relayed_by(peer.node_id):
            removed.append(UpdateOp("remove", nid, relayed_incs.get(nid, 0)))
            ctx.informer.bury(nid, relayed_incs.get(nid, 0))
            ctx.emit_member_down(nid, reason="relayer_died")
        if removed and ctx.is_relay_point():
            ctx.informer.originate(removed)
        if peer.node_id == group.my_backup:
            group.my_backup = ctx.contender.pick_backup(group)
