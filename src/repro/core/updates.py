"""Update messages: origination, relay, piggyback, loss recovery.

Status changes (node joins, departures, value changes) propagate through
the tree as **update messages** (Section 3.1.2):

* The leader that detects a change multicasts an update on every channel
  it participates in ("it will multicast this information to all the
  groups that it joins").
* A node receiving a *new* update applies it and relays it onto its other
  channels; the leader of the receiving channel additionally echoes it on
  that same channel so overlapped group members beyond the sender's TTL
  reach still hear it.  Updates carry a ``(origin, uid)`` pair that is
  globally unique by content (the originating node plus its own counter)
  and every node processes each pair once, so relays terminate and
  redundant deliveries are harmless (the paper's idempotence argument).
* Loss handling: each (sender, channel) stream is sequence-numbered and
  every message piggybacks the last ``piggyback_depth`` updates sent on
  that channel within the level's timeout, as far as they fit the bytes
  of that many one-member updates (the paper's updates are one-member
  changes; a bootstrap flood is not re-sent three times), tolerating
  that many consecutive losses; a larger gap, or a lost update too big
  to ride, triggers a full directory sync poll to the sender ("the
  receiver will poll the sender to synchronize its membership
  directory").  An older update need not ride along: every heartbeat
  advertises the sender's seq, so by then each live receiver has applied
  it or polled, or has dropped the sender as dead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.directory import NodeRecord
from repro.runtime import HEADER_SIZE

if TYPE_CHECKING:
    from repro.core.config import HierarchicalConfig

__all__ = ["UpdateOp", "UpdateMessage", "UpdateManager", "RecvOutcome"]

_uid_counter = itertools.count(1)

#: Wire-size estimate of a removal op (node id + incarnation + op byte).
REMOVE_OP_SIZE = 24


@dataclass(frozen=True, slots=True)
class UpdateOp:
    """One membership delta.

    ``op`` is one of:

    * ``"add"`` — record present;
    * ``"remove"`` — failure detected; id + incarnation of the node being
      removed (the incarnation guards against removing a fresher record of
      a restarted node);
    * ``"leave"`` — graceful departure announced by the node itself; like
      a remove but receivers drop the member immediately even though its
      heartbeats were heard moments ago.
    """

    op: str
    node_id: str
    incarnation: int
    record: Optional[NodeRecord] = None

    def size(self, member_size: int) -> int:
        return member_size if self.op == "add" else REMOVE_OP_SIZE


#: One piggyback entry: ``(seq, uid, origin, ops)`` of an earlier update.
_PiggyEntry = Tuple[int, int, str, Tuple[UpdateOp, ...]]


@dataclass(frozen=True, slots=True)
class UpdateMessage:
    """One update datagram on one channel.

    ``seq`` numbers the (sender, channel) stream hop-by-hop; ``(origin,
    uid)`` identifies the logical update end-to-end for deduplication —
    ``uid`` alone is only unique within the originator's process, so two
    real daemons whose counters both start at 1 would otherwise swallow
    each other's updates.  ``piggyback`` carries ``(seq, uid, origin,
    ops)`` of the sender's previous updates on this channel; each entry
    keeps the *true* originator of that update (a piggybacked entry may
    be a relay of someone else's change).
    """

    uid: int
    origin: str
    sender: str
    level: int
    seq: int
    ops: Tuple[UpdateOp, ...]
    piggyback: Tuple[_PiggyEntry, ...] = ()

    def size(self, member_size: int) -> int:
        """Wire size: the header plus every op, piggybacked ones included.

        The send path prices a message it built through
        :meth:`UpdateManager.last_size` instead, which gives the same
        number without walking the ops.
        """
        total = HEADER_SIZE + sum(op.size(member_size) for op in self.ops)
        for _seq, _uid, _origin, ops in self.piggyback:
            total += sum(op.size(member_size) for op in ops)
        return total


@dataclass(slots=True)
class RecvOutcome:
    """Result of processing one incoming update message."""

    #: ``(uid, origin, ops)`` groups to apply, oldest first (may include
    #: recovered piggyback); ``origin`` is the true originator of each
    #: group so relays re-advertise the right end-to-end identity.
    apply: List[Tuple[int, str, Tuple[UpdateOp, ...]]] = field(default_factory=list)
    #: True when a gap exceeded the piggyback depth: poll the sender
    need_sync: bool = False
    #: True when this message's primary update was new (should be relayed)
    relay: bool = False
    #: op groups in ``apply`` that came from the piggyback, not the
    #: primary update — free loss recovery (observability counter).
    recovered: int = 0


#: Default bound on the remembered-uid window (see UpdateManager).
DEFAULT_SEEN_UID_WINDOW = 4096


class UpdateManager:
    """Per-node bookkeeping for the update sub-protocol.

    ``seen_uid_window`` bounds the uid-deduplication memory: keys are kept
    in an insertion-ordered window and the oldest are evicted once the
    window overflows, so long-running nodes no longer leak memory linearly
    in cluster churn.  The window only needs to cover updates that can
    still arrive late — bounded by piggyback depth times fan-in in
    practice — and an evicted key that *does* straggle back is merely
    re-applied, which the paper's idempotence argument makes harmless
    ("redundant messages will not cause confusion").

    Deduplication keys on ``(origin, uid)`` *content*, never on payload
    identity and never on the bare uid: uids are allocated by a counter in
    the originating process, so two real daemons (or a process restart)
    can both emit uid 1 — the originator id disambiguates.  Inside one
    simulator process uids happen to be globally unique, which makes the
    keyed and bare forms indistinguishable there (the golden traces pin
    this).
    """

    def __init__(
        self,
        node_id: str,
        config: "HierarchicalConfig",
        seen_uid_window: int = DEFAULT_SEEN_UID_WINDOW,
        uid_alloc: Optional[Callable[[], int]] = None,
    ) -> None:
        self.node_id = node_id
        #: source of ``piggyback_depth``, of the piggyback's byte budget
        #: (``member_size``) and of each level's piggyback horizon,
        #: ``level_timeout(level)``; the node facade re-points it
        #: when the control plane replaces the config.
        self.config = config
        self.seen_uid_window = seen_uid_window
        # Pluggable uid source: the process-global counter is fine for
        # one kernel, but the sharded runner needs uids that are unique
        # across worker processes and independent of execution order, so
        # it injects a per-node allocator (see ShardNetwork.uid_alloc).
        self._uid_alloc = uid_alloc
        # outgoing per-channel state
        self._next_seq: Dict[int, int] = {}
        # level -> (the piggyback window's entries, the adds and other ops
        # of each entry, flat and in step with it, and each entry's send
        # time).  The counts price an entry without walking its ops, both
        # against the piggyback budget and in the last message's totals.
        self._recent: Dict[
            int, Tuple[List[_PiggyEntry], List[int], List[float]]
        ] = {}
        self._built_counts: Tuple[int, int] = (0, 0)
        # incoming stream positions: level -> sender -> last seen seq.
        # Nested (not tuple-keyed) so the per-heartbeat behind() check
        # needs no key allocation, and the per-level map has a *stable
        # identity* (cleared in place, never replaced) that the receive
        # fast path can capture once per channel subscription.
        self._last_seen: Dict[int, Dict[str, int]] = {}
        # (origin, uid) keys already applied/relayed: insertion-ordered
        # (dict preserves insertion order) so eviction drops the oldest
        # first
        self._seen_uids: Dict[Tuple[str, int], None] = {}

    def reset(self) -> None:
        """Forget everything (daemon restart)."""
        self._next_seq.clear()
        self._recent.clear()
        self._built_counts = (0, 0)
        # In place: captured level_stream() references must stay valid.
        for stream in self._last_seen.values():
            stream.clear()
        self._seen_uids.clear()

    # ------------------------------------------------------------------
    # Outgoing
    # ------------------------------------------------------------------
    def new_uid(self) -> int:
        if self._uid_alloc is not None:
            return self._uid_alloc()
        return next(_uid_counter)

    def build(
        self,
        level: int,
        ops: Sequence[UpdateOp],
        now: float,
        uid: Optional[int] = None,
        origin: Optional[str] = None,
    ) -> UpdateMessage:
        """Construct the next update message for ``level``'s channel, sent at ``now``.

        ``uid``/``origin`` are carried through unchanged when relaying
        someone else's update; omitted for locally-originated changes.

        The piggyback window is the last ``piggyback_depth`` updates sent
        on the channel no more than ``level_timeout(level)`` before
        ``now``; send times never decrease, so the expired entries are
        the window's oldest.  The message carries the part of the window
        that fits the paper's "last 3 updates" of one member each:
        walking it newest first, an entry rides while the ops carried so
        far fit ``piggyback_depth * member_size`` bytes, priced as on the
        wire, and an entry that does not fit (a bootstrap flood or a
        subtree re-announce) is skipped.  A receiver that lost a skipped
        entry sees the gap and polls.
        """
        seq = self._next_seq.get(level, 0) + 1
        self._next_seq[level] = seq
        msg_uid = uid if uid is not None else self.new_uid()
        msg_origin = origin if origin is not None else self.node_id
        window = self._recent.get(level)
        if window is None:
            window = self._recent[level] = ([], [], [])
        recent, counts, sent = window
        timeout = self.config.level_timeout(level)
        drop = max(0, len(recent) - self.config.piggyback_depth)
        while drop < len(sent) and now - sent[drop] > timeout:
            drop += 1
        if drop:
            del recent[:drop]
            del counts[: 2 * drop]
            del sent[:drop]
        # Newest first, carry each entry whose ops still fit the budget of
        # piggyback_depth one-member updates; skip one that does not.
        member_size = self.config.member_size
        room = self.config.piggyback_depth * member_size
        carried: List[_PiggyEntry] = []
        carried_adds = carried_others = 0
        for entry, entry_adds, entry_others in zip(
            reversed(recent), counts[-2::-2], counts[::-2]
        ):
            cost = entry_adds * member_size + entry_others * REMOVE_OP_SIZE
            if cost <= room:
                room -= cost
                carried.append(entry)
                carried_adds += entry_adds
                carried_others += entry_others
        carried.reverse()
        msg = UpdateMessage(
            uid=msg_uid,
            origin=msg_origin,
            sender=self.node_id,
            level=level,
            seq=seq,
            ops=tuple(ops),
            piggyback=tuple(carried),
        )
        adds = [op.op for op in msg.ops].count("add")
        others = len(msg.ops) - adds
        self._built_counts = (adds + carried_adds, others + carried_others)
        recent.append((seq, msg_uid, msg_origin, msg.ops))
        counts += (adds, others)
        sent.append(now)
        # Anything we send is by definition known to us.
        self.mark_seen(msg_origin, msg_uid)
        return msg

    def last_size(self, member_size: int) -> int:
        """Wire size of the message :meth:`build` returned last.

        Equals that message's :meth:`UpdateMessage.size`; priced from
        the op counts at call time, so a changed ``member_size`` prices
        right.
        """
        adds, others = self._built_counts
        return HEADER_SIZE + adds * member_size + others * REMOVE_OP_SIZE

    def mark_seen(self, origin: str, uid: int) -> None:
        seen = self._seen_uids
        key = (origin, uid)
        if key in seen:
            return
        seen[key] = None
        if len(seen) > self.seen_uid_window:
            # Evict the oldest remembered keys (insertion order).
            overflow = len(seen) - self.seen_uid_window
            for old in list(itertools.islice(iter(seen), overflow)):
                del seen[old]

    # ------------------------------------------------------------------
    # Incoming
    # ------------------------------------------------------------------
    def receive(self, msg: UpdateMessage) -> RecvOutcome:
        """Process sequence numbers, piggyback recovery and deduplication.

        The caller applies ``outcome.apply`` op groups (deduplicated by
        ``(origin, uid)`` already), relays the primary update if ``outcome.relay``, and
        issues a directory sync poll to ``msg.sender`` if
        ``outcome.need_sync``.
        """
        outcome = RecvOutcome()
        stream = self.level_stream(msg.level)
        last = stream.get(msg.sender)
        if last is None:
            # First contact mid-stream: everything before msg.seq was
            # missed; the piggyback recovers the recent tail and a larger
            # hole triggers a bootstrap sync.
            last = 0
        if msg.seq <= last:
            # Duplicate or reordered-behind packet: (origin, uid) dedup
            # still applies, and the piggyback may carry updates we never
            # saw — a reordered-behind message's tail can hold a seq that
            # was lost, then jumped over by note_synced or a later gap
            # whose own piggyback no longer reached back that far.  The
            # forward path recovers these for free; discarding them here
            # threw the loss-recovery data away.  (Piggybacked seqs are
            # all < msg.seq, so _last_seen needs no update, and an entry
            # we did apply before is deduplicated.)
            for _seq, uid, origin, ops in msg.piggyback:
                if (origin, uid) not in self._seen_uids:
                    self.mark_seen(origin, uid)
                    outcome.apply.append((uid, origin, ops))
                    outcome.recovered += 1
            if (msg.origin, msg.uid) not in self._seen_uids:
                self.mark_seen(msg.origin, msg.uid)
                outcome.apply.append((msg.uid, msg.origin, msg.ops))
                outcome.relay = True
            return outcome

        if msg.seq > last + 1:
            # Gap: try to recover missed seqs from the piggyback.
            missing = set(range(last + 1, msg.seq))
            recovered = {
                seq: (uid, origin, ops)
                for seq, uid, origin, ops in msg.piggyback
                if seq in missing
            }
            if missing - set(recovered):
                outcome.need_sync = True
            for seq in sorted(recovered):
                uid, origin, ops = recovered[seq]
                if (origin, uid) not in self._seen_uids:
                    self.mark_seen(origin, uid)
                    outcome.apply.append((uid, origin, ops))
                    outcome.recovered += 1
        stream[msg.sender] = msg.seq

        if (msg.origin, msg.uid) not in self._seen_uids:
            self.mark_seen(msg.origin, msg.uid)
            outcome.apply.append((msg.uid, msg.origin, msg.ops))
            outcome.relay = True
        return outcome

    def current_seq(self, level: int) -> int:
        """Latest sequence number sent on ``level`` (advertised in heartbeats)."""
        return self._next_seq.get(level, 0)

    def level_stream(self, level: int) -> Dict[str, int]:
        """The sender → last-seen-seq map for ``level``.

        The returned dict has a stable identity for the manager's
        lifetime (:meth:`reset` empties it in place), so the per-channel
        receive fast path may capture it once and run the
        :meth:`behind` predicate without a method call or key tuple.
        """
        stream = self._last_seen.get(level)
        if stream is None:
            stream = self._last_seen[level] = {}
        return stream

    def behind(self, sender: str, level: int, advertised_seq: int) -> bool:
        """True if the sender's heartbeat advertises updates we never saw."""
        if advertised_seq <= 0:
            return False
        stream = self._last_seen.get(level)
        last = stream.get(sender) if stream is not None else None
        return last is None or last < advertised_seq

    def note_synced(self, sender: str, level: int, advertised_seq: int) -> None:
        """Mark the stream caught-up after a full directory sync."""
        stream = self.level_stream(level)
        if stream.get(sender, -1) < advertised_seq:
            stream[sender] = advertised_seq

    def forget_sender(self, sender: str) -> None:
        """Drop stream state for a dead sender (its seq space restarts)."""
        for stream in self._last_seen.values():
            stream.pop(sender, None)
