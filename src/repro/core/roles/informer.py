"""Informer role: update dissemination and the sync (bootstrap) server.

The informer owns everything second-hand: originating and relaying
update multicasts (Fig. 5 propagation rules), applying received ops with
their incarnation guards, the rate-limited bidirectional sync exchange,
snapshot merging with vouch-anchored attribution, and the tombstone
(death certificate) machinery that keeps removals from being undone by
stale news.

Observability: ``updates_tx``, ``updates_rx``, ``update_ops``,
``piggyback_recovered``, ``syncs_sent`` and ``sync_snapshot`` increment
here and nowhere else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, cast

from repro.core.roles.context import RateLimiter
from repro.core.roles.receiver import HMEMBER_PORT
from repro.core.updates import UpdateOp

if TYPE_CHECKING:
    from repro.cluster.directory import NodeRecord
    from repro.core.roles.context import NodeContext
    from repro.core.updates import UpdateMessage

__all__ = ["Informer"]


class Informer:
    """Spreads membership news and serves directory bootstraps."""

    def __init__(self, ctx: "NodeContext") -> None:
        self.ctx = ctx
        # Sync rate limiter: peer -> time of last request sent.
        self.last_sync = RateLimiter()

    def reset(self) -> None:
        self.last_sync.clear()

    # ------------------------------------------------------------------
    # Update origination and relay
    # ------------------------------------------------------------------
    def originate(self, ops: Sequence[UpdateOp]) -> None:
        """Multicast a locally-originated update on every channel we join."""
        if not ops:
            return
        ctx = self.ctx
        uid = ctx.updates.new_uid()
        for level in ctx.levels:
            self.send_update(level, ops, uid=uid, origin=ctx.node_id)

    def send_update(
        self,
        level: int,
        ops: Sequence[UpdateOp],
        uid: Optional[int],
        origin: Optional[str],
    ) -> None:
        ctx = self.ctx
        if level not in ctx.groups:
            return
        msg = ctx.updates.build(level, ops, ctx.now, uid=uid, origin=origin)
        ctx.runtime.obs.updates_tx.inc()
        ctx.runtime.publish(
            ctx.config.channel(level),
            ttl=ctx.config.ttl_for_level(level),
            kind="update",
            payload=msg,
            size=ctx.updates.last_size(ctx.config.member_size),
        )

    def on_update(self, msg: "UpdateMessage", level: int) -> None:
        ctx = self.ctx
        obs = ctx.runtime.obs
        obs.updates_rx.inc()
        outcome = ctx.updates.receive(msg)
        if outcome.recovered:
            obs.piggyback_recovered.add(outcome.recovered)
        # Every newly-applied op group is relayed — including groups
        # recovered from the piggyback, otherwise a relay point that
        # recovered a lost update would starve its whole subtree of it.
        # Each group carries its own origin: a piggyback-recovered group
        # may originate elsewhere than the primary update, and the relay
        # must re-advertise the true (origin, uid) identity or downstream
        # dedup would see the same update under two keys.
        applied = 0
        for uid, origin, ops in outcome.apply:
            applied += len(ops)
            self.apply_ops(ops, via=msg.sender)
            self.relay_ops(uid, origin, ops, from_level=level)
        if applied:
            obs.update_ops.add(applied)
        if outcome.need_sync:
            ctx.maybe_sync(msg.sender)

    def relay_ops(
        self,
        uid: int,
        origin: str,
        ops: Sequence[UpdateOp],
        from_level: int,
    ) -> None:
        """Forward an update per the propagation rules (Fig. 5).

        Sent on every other participating channel; echoed on the incoming
        channel too when we lead it (overlapped groups: members the sender
        could not reach still hear the leader's copy).
        """
        ctx = self.ctx
        for level in ctx.levels:
            group = ctx.groups[level]
            if level == from_level and not group.i_am_leader:
                continue
            self.send_update(level, ops, uid=uid, origin=origin)

    def apply_ops(self, ops: Sequence[UpdateOp], via: str) -> None:
        ctx = self.ctx
        now = ctx.now
        my_id = ctx.node_id
        # One vouch-anchor memo per op batch: anchors depend only on group
        # / leader state, which "add" absorption never touches.  Any other
        # op kind may mutate it (drop_peer, become_leader, refutations), so
        # the memo is discarded after each non-add op.
        vouch_memo: Dict[str, str] = {}
        # Formation applies one "add" per node pair plus relayed
        # re-announcements — n^2-scale traffic whose two dominant cases
        # (brand-new record; identical re-announcement with an unchanged
        # voucher) are inlined below with batch-hoisted lookups, leaving
        # absorb_record the general path.  The hoisted aliases are all
        # stable objects mutated in place, never rebound.
        #
        # First sights are gathered into ``run`` and written with one
        # insert_new when the next non-add op or the end of the group
        # comes.  Only first-sight adds and updates of entries already
        # held happen in between, and those touch other ids and emit
        # nothing, so the directory and the trace end up as if each
        # record had been inserted at its own op.
        _held, slot_of, _ids, records, relayers, fresh = ctx.directory.slot_access()
        tombstones = ctx.tombstones
        run: List["NodeRecord"] = []
        for op in ops:
            if op.op == "add" and op.node_id != my_id:
                rec = op.record
                if rec is None:
                    continue
                if not tombstones:
                    slot = slot_of(rec.node_id)
                    if slot is None or slot >= len(records):
                        run.append(rec)
                        continue
                    stored = records[slot]
                    if stored is None:
                        run.append(rec)
                        continue
                    if stored is rec or stored == rec:
                        # Identical stored payload — by identity when the
                        # record travelled by reference inside the
                        # simulator, by content after a wire round-trip
                        # (equal content implies equal incarnation, so the
                        # freshness guard holds either way).  With a
                        # direct entry or an unchanged voucher this is
                        # absorb_record's bare-timestamp-bump case
                        # (takeover analysis provably keeps ``relayed_by``
                        # when it equals ``via``; direct knowledge always
                        # outranks).
                        rb = relayers[slot]
                        if rb is None or rb == via:
                            fresh[slot] = now
                            continue
                self.absorb_record(rec, via, now, vouch_memo)
                continue
            if run:
                self.insert_run(run, via, now, vouch_memo)
                run = []
            vouch_memo = {}
            if op.node_id == my_id:
                if op.op == "remove" and op.incarnation >= ctx.node.incarnation:
                    # Rumor of our own death: refute by bumping our
                    # incarnation (SWIM-style) — the higher incarnation
                    # beats the rumor and any death certificates guarding
                    # the old one.  The facade also moves the runtime
                    # epoch, invalidating one-shots from the old life.
                    ctx.node.refute_death()
                    record = ctx.node.self_record()
                    ctx.directory.upsert(record, now)
                    self.originate(
                        [UpdateOp("add", ctx.node_id, record.incarnation, record)]
                    )
                continue  # we are the authority on ourselves
            if op.op == "leave":
                # Graceful departure: drop immediately, heartbeats heard a
                # moment ago notwithstanding (only the node itself
                # originates its leave, so there is no rumor to distrust).
                existing = ctx.directory.get(op.node_id)
                if existing is None or existing.incarnation > op.incarnation:
                    continue
                for level in ctx.levels:
                    group = ctx.groups.get(level)
                    if group is None:
                        continue  # left during this loop (leader takeover)
                    peer = group.peers.get(op.node_id)
                    if peer is not None and peer.is_leader:
                        # Same failover bookkeeping as a detected leader
                        # death: the backup (or the next elected leader)
                        # inherits the vouched entries.
                        if peer.backup == ctx.node_id and not group.i_am_leader:
                            ctx.directory.reattribute(op.node_id, ctx.node_id)
                            group.drop_peer(op.node_id)
                            ctx.contender.become_leader(level)
                            continue
                        if peer.backup is not None and peer.backup in group.peers:
                            ctx.directory.reattribute(op.node_id, peer.backup)
                        else:
                            group.last_dead_leader = op.node_id
                    group.drop_peer(op.node_id)
                ctx.directory.remove(op.node_id)
                self.bury(op.node_id, op.incarnation)
                ctx.updates.forget_sender(op.node_id)
                ctx.emit_member_down(op.node_id, reason="leave")
            elif op.op == "remove":
                heard = ctx.heard_level(op.node_id)
                if heard is not None:
                    # We hear this node ourselves; our own failure detector
                    # outranks second-hand news.  Leaders refute the rumor
                    # so distant nodes that removed it re-add it quickly,
                    # but only for a node heard within two periods: one
                    # gone quieter is about to time out here too, and a
                    # refutation would only bounce the members' removal.
                    group = ctx.groups[heard]
                    record = ctx.directory.get(op.node_id)
                    if (
                        record is not None
                        and group.i_am_leader
                        and now - group.peers[op.node_id].last_heard
                        <= 2 * ctx.config.heartbeat_period
                    ):
                        self.originate(
                            [UpdateOp("add", op.node_id, record.incarnation, record)]
                        )
                    continue
                existing = ctx.directory.get(op.node_id)
                if existing is None or existing.incarnation > op.incarnation:
                    continue
                ctx.directory.remove(op.node_id)
                self.bury(op.node_id, op.incarnation)
                ctx.emit_member_down(op.node_id, reason="update")
        if run:
            self.insert_run(run, via, now, vouch_memo)

    def insert_run(
        self,
        run: List["NodeRecord"],
        via: str,
        now: float,
        vouch_memo: Dict[str, str],
    ) -> None:
        """Write a run of first sights heard from ``via`` (absorb_record's insert branch).

        One anchor, one ``insert_new``, one ``member_up`` add and one
        view-event call for the run.  Should the run name an id twice, the
        second record meets the entry the first one made and is merged
        like any re-announcement.
        """
        ctx = self.ctx
        relayed_by = vouch_memo.get(via)
        if relayed_by is None:
            relayed_by = vouch_memo[via] = self.vouch_anchor(via)
        runtime = ctx.runtime
        while run:
            inserted = ctx.directory.insert_new(run, now, relayed_by)
            runtime.obs.member_up.add(inserted)
            runtime.emit_view_events("member_up", (r.node_id for r in run[:inserted]))
            if inserted < len(run):
                self.absorb_record(run[inserted], via, now, vouch_memo)
                inserted += 1
            run = run[inserted:]

    # ------------------------------------------------------------------
    # Sync (bootstrap) protocol, client side
    # ------------------------------------------------------------------
    def maybe_sync(self, peer: str) -> bool:
        """Bidirectional directory exchange with ``peer``, rate-limited.

        Returns True when a sync request was actually sent.  The peer
        stays in ``pending_syncs`` (retried each status tick) until its
        response arrives, so a lost request or response is not fatal.
        """
        ctx = self.ctx
        if not ctx.node.running:
            return False
        now = ctx.now
        ctx.pending_syncs.add(peer)
        if not self.last_sync.allow(peer, now, ctx.config.min_sync_interval):
            return False
        snapshot = [r for r in ctx.directory.records() if r.node_id != peer]
        obs = ctx.runtime.obs
        obs.syncs_sent.inc()
        obs.sync_snapshot.observe(len(snapshot))
        ctx.runtime.send(
            peer,
            kind="sync_req",
            payload={"snapshot": snapshot},
            size=ctx.config.message_size(max(1, len(snapshot))),
            port=HMEMBER_PORT,
        )
        return True

    def merge_snapshot(
        self,
        snapshot: Sequence["NodeRecord"],
        via: str,
        prune_relayer: bool = False,
    ) -> None:
        """Merge a full-directory snapshot received from ``via``.

        Additive only: removals travel as updates or timeouts, never as
        absence from a snapshot (a snapshot may be older than a removal we
        already applied).  Newly-learned entries are re-announced as
        add-updates when this node is a relay point, so bootstrap payloads
        reach the rest of the tree.
        """
        ctx = self.ctx
        now = ctx.now
        added: List["NodeRecord"] = []
        my_id = ctx.node_id
        # Absorbing "add"s never touches group/leader state, so one vouch
        # memo is valid across the whole snapshot.
        vouch_memo: Dict[str, str] = {}
        for record in snapshot:
            if record.node_id == my_id:
                continue
            if self.absorb_record(record, via, now, vouch_memo):
                added.append(record)
        if prune_relayer:
            # A full snapshot from our voucher is authoritative about what
            # it still vouches for: drop entries it no longer lists (heals
            # a missed remove-update that was the sender's last message).
            listed = {r.node_id for r in snapshot}
            pruned: List[UpdateOp] = []
            for nid in ctx.directory.relayed_entries(via):
                if nid not in listed and ctx.heard_level(nid) is None:
                    rec = ctx.directory.get(nid)
                    ctx.directory.remove(nid)
                    if rec is not None:
                        self.bury(nid, rec.incarnation)
                        pruned.append(UpdateOp("remove", nid, rec.incarnation))
                    ctx.emit_member_down(nid, reason="sync_prune")
            if pruned and ctx.is_relay_point():
                # The removal we missed is one our own group missed too:
                # the sync marks the sender's stream caught up, so the
                # piggyback that carried it is never relayed.  Like the
                # tracker's backstop purge, a relay point tells its group.
                self.originate(pruned)
        if not ctx.is_relay_point():
            return
        from_level: Optional[int] = None
        if (
            now < ctx.bootstrap_announce_until
            and now - ctx.last_full_announce >= ctx.config.min_sync_interval
        ):
            # Fresh leadership: propagate the whole bootstrap result so
            # members recover entries they dropped during the failover
            # (their removals were collateral, not visible to us).
            # Rate-limited: one flood per sync interval is enough and
            # keeps formation-time traffic linear.  The flood follows the
            # relay rule (Fig. 5): the channel we hear the snapshot's
            # sender on holds the sender, who has just said all of it, so
            # that channel hears the flood only as our echo where we lead
            # it.  A sender heard on no channel gets it everywhere.
            ctx.last_full_announce = now
            announce = [
                r
                for r in snapshot
                if r.node_id != ctx.node_id and r.node_id in ctx.directory
            ]
            from_level = ctx.heard_level(via)
        else:
            announce = added
        if not announce:
            return
        ops = [UpdateOp("add", r.node_id, r.incarnation, r) for r in announce]
        if from_level is None:
            self.originate(ops)
        else:
            self.relay_ops(ctx.updates.new_uid(), ctx.node_id, ops, from_level)

    # ------------------------------------------------------------------
    # Second-hand record absorption and death certificates
    # ------------------------------------------------------------------
    def vouch_anchor(self, via: str) -> str:
        """Who should vouch for second-hand information arriving from ``via``.

        Attribution decides whose death takes an entry down with it, so it
        must name the node that will actually keep the entry fresh:

        * ``via`` itself when we hear it on a channel of level >= 1 (any
          such participant is the leader of a lower group — exactly the
          subtree-representative relationship) or when it flies the leader
          flag on a shared channel;
        * ourselves when we are a leader (we are the relay point);
        * otherwise our level-0 group leader, whose heartbeats vouch for
          everything it relays to us.
        """
        ctx = self.ctx
        for level in ctx.levels:
            peer = ctx.groups[level].peers.get(via)
            if peer is not None and (level >= 1 or peer.is_leader):
                return via
        if any(g.i_am_leader for g in ctx.groups.values()):
            return ctx.node_id
        if ctx.groups:
            lowest = ctx.groups[ctx.levels[0]]
            leader = lowest.current_leader(ctx.node_id)
            if leader is not None:
                return leader
        return via

    def tombstoned(self, node_id: str, incarnation: int, now: float) -> bool:
        """True if ``(node_id, incarnation)`` is covered by a death certificate."""
        ctx = self.ctx
        entry = ctx.tombstones.get(node_id)
        if entry is None:
            return False
        dead_inc, when = entry
        if now - when > ctx.config.tombstone_quarantine:
            del ctx.tombstones[node_id]
            return False
        return incarnation <= dead_inc

    def bury(self, node_id: str, incarnation: int) -> None:
        """Record a death certificate for a node we just removed."""
        ctx = self.ctx
        cur = ctx.tombstones.get(node_id)
        if cur is None or cur[0] <= incarnation:
            ctx.tombstones[node_id] = (incarnation, ctx.now)

    def absorb_record(
        self,
        record: "NodeRecord",
        via: str,
        now: float,
        vouch_memo: Dict[str, str],
    ) -> bool:
        """Merge one second-hand record; returns True if it was new.

        Attribution rules: direct entries stay direct; existing relayed
        entries keep their relayer unless ``via`` is itself the
        authoritative voucher (a subtree leader we hear directly), which
        re-homes the entry — that is how a failed-over leader's successor
        takes ownership of the subtree in everyone's books.

        ``vouch_memo`` is the caller's per-batch cache of
        :meth:`vouch_anchor` results, valid only while group/leader state
        is untouched (the caller clears it across mutating ops).
        """
        ctx = self.ctx
        if ctx.tombstones and self.tombstoned(
            record.node_id, record.incarnation, now
        ):
            inc, when = ctx.tombstones[record.node_id]
            # Active anti-entropy: whoever still advertises this dead
            # incarnation is stale — push the removal back out instead of
            # ever importing the staleness.  If the node is actually alive
            # (e.g. a healed partition), the remove rumor reaches it and it
            # refutes by bumping its incarnation, which beats every
            # certificate.  Rate-limited to avoid refutation storms.
            if ctx.tombstone_refutes.allow(
                record.node_id, now, ctx.config.min_sync_interval
            ):
                self.originate([UpdateOp("remove", record.node_id, inc)])
            # Backstop for quiet corners: re-pull from the source once the
            # quarantine ends (by then the cluster has converged on either
            # the removal or the higher incarnation).
            remaining = ctx.config.tombstone_quarantine - (now - when)
            ctx.runtime.call_once(
                max(remaining, 0.0) + ctx.config.heartbeat_period,
                ctx.maybe_sync,
                via,
            )
            return False
        held, _slot_of, _ids, records, relayers, fresh = ctx.directory.slot_access()
        slot = held(record.node_id)
        if slot is None:
            relayed_by: Optional[str] = vouch_memo.get(via)
            if relayed_by is None:
                relayed_by = vouch_memo[via] = self.vouch_anchor(via)
            ctx.directory.upsert(record, now, relayed_by=relayed_by)
            ctx.emit_member_up(record.node_id)
            return True
        existing = cast("NodeRecord", records[slot])
        if existing.incarnation > record.incarnation:
            return False
        current = relayers[slot]
        if current is None:
            relayed_by = None  # direct knowledge outranks relays
        else:
            anchor_via = vouch_memo.get(via)
            if anchor_via is None:
                anchor_via = vouch_memo[via] = self.vouch_anchor(via)
            takeover = False
            if anchor_via == via:
                if current == ctx.node_id:
                    takeover = True
                else:
                    anchor_cur = vouch_memo.get(current)
                    if anchor_cur is None:
                        anchor_cur = vouch_memo[current] = self.vouch_anchor(current)
                    takeover = anchor_cur != current
            if takeover:
                # The current relayer no longer functions as a vouching
                # relay point for us (dead, left the channel, or demoted to
                # a plain member) and an authoritative source re-announces
                # the entry: it takes over the vouching.  A *functioning*
                # voucher keeps its entries — otherwise a peer's
                # full-snapshot sync would steal attribution of other
                # subtrees and break the per-subtree failure cascade.
                relayed_by = via
            else:
                relayed_by = current
        if existing is record or existing == record:
            # Same payload as stored — identical object when records
            # travel by reference in the simulator, equal content after a
            # serialized round-trip: a pure freshness/attribution
            # refresh, skipping the upsert path — the hot case during
            # formation-time announce floods.  An unchanged relayer (the
            # overwhelmingly common sub-case) is a bare timestamp bump on
            # the entry we already hold.
            if relayed_by == current:
                fresh[slot] = now
            else:
                ctx.directory.refresh(record.node_id, now, relayed_by=relayed_by)
            return False
        ctx.directory.upsert(record, now, relayed_by=relayed_by)
        return False
