"""Per-channel group state.

A node participating in a channel keeps a :class:`GroupState`: the peers it
currently hears there (with their election flags and freshness) and its own
election posture on that channel.  TTL scoping means two nodes subscribed
to the same channel may see different peer sets — this per-node view is
exactly what makes the protocol correct on the overlapping topologies of
Fig. 4, where *group* is a per-observer notion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.heartbeat import Heartbeat

__all__ = ["PeerState", "GroupState"]


@dataclass(slots=True)
class PeerState:
    """What this node knows about one peer on one channel."""

    node_id: str
    last_heard: float
    is_leader: bool = False
    suppressed: bool = False
    backup: Optional[str] = None
    incarnation: int = 0
    #: the last heartbeat payload heard from this peer.  Senders intern
    #: unchanged heartbeats, so ``hb is last_hb`` identifies a no-change
    #: heartbeat in O(1) — the receive fast path's precondition.
    last_hb: Optional[Heartbeat] = None
    #: cached slot of this peer's entry in the owner's directory (see
    #: ``Directory.slot_access``).  The slot table spans the whole
    #: cluster, so at 10k nodes the per-heartbeat freshness probe is a
    #: random walk through megabytes of hash table; the cache turns it
    #: into one touch of the entry's cells.  Valid only while the table
    #: names this peer's id at the slot and the directory holds the cell
    #: there — re-probe otherwise.
    dir_slot: Optional[int] = None


@dataclass(slots=True)
class GroupState:
    """One node's view of one membership channel."""

    level: int
    peers: Dict[str, PeerState] = field(default_factory=dict)
    i_am_leader: bool = False
    suppressed: bool = False
    #: my designated backup (only meaningful while leader)
    my_backup: Optional[str] = None
    #: when we first observed "no leader visible" (election clock)
    leaderless_since: Optional[float] = None
    #: a purged leader whose vouched entries await re-attribution to the
    #: next leader that appears on this channel
    last_dead_leader: Optional[str] = None
    #: ids of peers currently flying the leader flag, maintained
    #: incrementally so election checks stop rescanning the peer table
    _leader_ids: Set[str] = field(default_factory=set, repr=False)
    _leaders_sorted: Optional[List[str]] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Updates from received heartbeats
    # ------------------------------------------------------------------
    def note_heartbeat(self, hb: Heartbeat, now: float) -> bool:
        """Record a peer heartbeat; returns True if the peer is new."""
        peer = self.peers.get(hb.node_id)
        is_new = peer is None or peer.incarnation < hb.record.incarnation
        if peer is None:
            peer = PeerState(hb.node_id, now)
            self.peers[hb.node_id] = peer
        peer.last_heard = now
        if peer.is_leader != hb.is_leader:
            peer.is_leader = hb.is_leader
            if hb.is_leader:
                self._leader_ids.add(hb.node_id)
            else:
                self._leader_ids.discard(hb.node_id)
            self._leaders_sorted = None
        elif hb.is_leader:
            self._leader_ids.add(hb.node_id)  # heals a first-sighting miss
        peer.suppressed = hb.suppressed
        peer.backup = hb.backup
        peer.incarnation = hb.record.incarnation
        peer.last_hb = hb
        return is_new

    def drop_peer(self, node_id: str) -> Optional[PeerState]:
        peer = self.peers.pop(node_id, None)
        if peer is not None and node_id in self._leader_ids:
            self._leader_ids.discard(node_id)
            self._leaders_sorted = None
        return peer

    def purge_silent(self, now: float, timeout: float) -> List[PeerState]:
        """Remove and return peers silent for more than ``timeout``."""
        dead = [p for p in self.peers.values() if now - p.last_heard > timeout]
        self.purge_peers(dead)
        return dead

    def purge_peers(self, dead: List[PeerState]) -> None:
        """Remove an externally-judged dead set (the detector's verdict).

        Split out of :meth:`purge_silent` so the failure-detection
        strategy owns the *judgement* while the group keeps the
        bookkeeping (leader-set invalidation) in one place.
        """
        for p in dead:
            del self.peers[p.node_id]
            if p.node_id in self._leader_ids:
                self._leader_ids.discard(p.node_id)
                self._leaders_sorted = None

    # ------------------------------------------------------------------
    # Election views
    # ------------------------------------------------------------------
    def leader_visible(self) -> bool:
        """O(1): is any peer currently flying the leader flag?"""
        return bool(self._leader_ids)

    def visible_leaders(self) -> List[str]:
        """Peers currently flying the leader flag, sorted by id.

        Served from an incrementally-maintained set (invalidated only on
        flag flips and peer departures), so per-heartbeat election checks
        cost O(1) instead of a peer-table scan.
        """
        cached = self._leaders_sorted
        if cached is None:
            cached = sorted(self._leader_ids)
            self._leaders_sorted = cached
        return list(cached)

    def current_leader(self, self_id: str) -> Optional[str]:
        """The leader this node follows on the channel (or itself)."""
        if self.i_am_leader:
            return self_id
        cached = self._leaders_sorted
        if cached is None:
            cached = self._leaders_sorted = sorted(self._leader_ids)
        return cached[0] if cached else None

    def contenders_below(self, my_id: str) -> List[str]:
        """Visible non-suppressed peers with a smaller id than mine.

        These are the peers that would win a bully election this node
        could otherwise claim.  Suppressed peers (they see some leader we
        cannot) stand aside, which is what lets a higher-id node lead an
        overlapped group (paper Fig. 4: F leads G'2 although E < F).
        """
        return sorted(
            p.node_id
            for p in self.peers.values()
            if not p.suppressed and not p.is_leader and p.node_id < my_id
        )

    def member_ids(self) -> List[str]:
        return sorted(self.peers)
