"""Contender role: leader election, backup designation, step-down (Fig. 10).

The decision rules themselves live in :mod:`repro.core.election`; the
contender applies a :class:`~repro.core.election.Decision` to this
node's state — flying the flag immediately, re-anchoring the subtree's
vouched entries, joining or abandoning the next channel up, and pulling
peers' state (bootstrap protocol, leader side).

Observability: ``elections`` and ``stepdowns`` increment here and
nowhere else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Set

from repro.core.election import Decision, decide
from repro.core.updates import UpdateOp

if TYPE_CHECKING:
    from repro.cluster.directory import NodeRecord
    from repro.core.groups import GroupState
    from repro.core.roles.context import NodeContext

__all__ = ["Contender"]


class Contender:
    """Contends for (and renounces) group leadership."""

    def __init__(self, ctx: "NodeContext") -> None:
        self.ctx = ctx

    def evaluate(self, level: int) -> None:
        ctx = self.ctx
        group = ctx.groups.get(level)
        if group is None:
            return
        decision = decide(group, ctx.node_id, ctx.now, ctx.config.election_delay)
        if decision is Decision.BECOME_LEADER:
            self.become_leader(level)
        elif decision is Decision.STEP_DOWN:
            self.step_down(level)

    def become_leader(self, level: int) -> None:
        ctx = self.ctx
        group = ctx.groups[level]
        group.i_am_leader = True
        group.suppressed = False
        group.leaderless_since = None
        group.my_backup = self.pick_backup(group)
        predecessor = group.last_dead_leader
        if predecessor is not None:
            ctx.directory.reattribute(predecessor, ctx.node_id)
            group.last_dead_leader = None
        ctx.runtime.obs.elections.inc()
        ctx.runtime.emit("leader_elected", level=level)
        # Bootstrap-results window: long enough for tombstone quarantines
        # to lapse and the deferred re-syncs to complete.
        ctx.bootstrap_announce_until = (
            ctx.now
            + ctx.config.tombstone_quarantine
            + 2 * ctx.config.min_sync_interval
        )
        ctx.announcer.send_heartbeat(level)  # fly the flag immediately
        # Re-announce the subtree this node now vouches for, so peers
        # re-attribute entries from the previous leader to us.  A climb
        # into an empty group re-attributes nothing, and the same records
        # went out when this node took the level below: it stays quiet.
        if group.peers or predecessor is not None:
            subtree = self.subtree_records(level)
            if subtree:
                ctx.informer.originate(
                    [UpdateOp("add", r.node_id, r.incarnation, r) for r in subtree]
                )
        ctx.participate(level + 1)
        # Pull state from existing peers: a fresh leader is this group's
        # relay point and must know its peers' subtrees (bootstrap protocol,
        # leader side).  This one-time pull is not held back by an earlier
        # poll of the same peer: deferred to the next status tick, it
        # would reach a member still in its bootstrap window that much
        # later, and that member's flood would go out late.
        last_sync = ctx.informer.last_sync
        for peer_id in group.member_ids():
            last_sync.forget(peer_id)
            ctx.maybe_sync(peer_id)

    def step_down(self, level: int) -> None:
        ctx = self.ctx
        group = ctx.groups[level]
        group.i_am_leader = False
        group.my_backup = None
        group.suppressed = True
        ctx.runtime.obs.stepdowns.inc()
        ctx.runtime.emit("leader_stepdown", level=level)
        ctx.announcer.send_heartbeat(level)
        orphans: Set[str] = set()
        ctx.abandon(level + 1, orphans)
        # Entries we only knew through the abandoned channels are handed to
        # the leader of our lowest remaining group — the relay point whose
        # heartbeats we will actually keep hearing (anchoring to the left
        # channel's leader would leave them vouched by someone a plain
        # member never hears again).
        anchor: Optional[str] = None
        if ctx.groups:
            lowest = ctx.groups[ctx.levels[0]]
            anchor = lowest.current_leader(ctx.node_id)
        now = ctx.now
        for nid in sorted(orphans):
            if nid == anchor or ctx.heard_level(nid) is not None:
                continue
            if nid in ctx.directory and anchor is not None:
                ctx.directory.refresh(nid, now, relayed_by=anchor)

    def pick_backup(self, group: "GroupState") -> Optional[str]:
        members = group.member_ids()
        if not members:
            return None
        return members[self.ctx.rng.randrange(len(members))]

    def subtree_records(self, level: int) -> List["NodeRecord"]:
        """Records this node vouches for when leading at ``level``.

        Everything heard directly at levels <= ``level`` plus itself —
        i.e. the subtree the new leader represents upward.
        """
        ctx = self.ctx
        ids = {ctx.node_id}
        for lv in ctx.levels:
            if lv <= level:
                ids.update(ctx.groups[lv].member_ids())
        out = []
        for nid in sorted(ids):
            rec = ctx.directory.get(nid)
            if rec is not None:
                out.append(rec)
        return out
