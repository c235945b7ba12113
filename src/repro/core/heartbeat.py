"""Heartbeat payloads for the hierarchical protocol.

Within each group every member multicasts one heartbeat per period.  A
heartbeat carries the sender's full member description (record) plus the
per-channel election flags: whether the sender is the group's leader on
this channel ("A group leader is found if a special flag in its heartbeat
packets is set", Bootstrap Protocol), whether it currently *sees* a leader
(used by the bully election to avoid two leaders that can see each other),
and the leader's designated backup.

Interning contract (protocol hot path): between membership and election
changes a node's heartbeat on a level is *identical*, so senders cache the
frozen instance per level and re-send the same object each period.  The
cached payload is invalidated by any change to the signature
``(record identity, is_leader, suppressed, backup, update_seq)`` — i.e. a
new incarnation or self-record edit, an election flip, a backup
re-designation, or an update sent on the channel.  Receivers exploit the
other direction: an incoming heartbeat that matches ``peer.last_hb``
proves nothing changed and short-circuits straight to a directory
freshness refresh.  Inside the simulator the match is the O(1) identity
test ``hb is peer.last_hb``; over a real transport payloads are rebuilt
from bytes, so the receive paths fall back to
:meth:`Heartbeat.same_as` — content equality with the cheap scalar flags
compared first — and MUST NOT rely on object identity for correctness.

The wire twin (:mod:`repro.runtime.wire`, :mod:`repro.runtime.anet`): an
unchanged heartbeat is also an unchanged *datagram*.
``AsyncRuntime.publish`` re-sends the previous bytes while the payload
``is`` the interned instance, and every socket owner keeps a
``DecodeMemo`` — the last strictly decoded heartbeat datagram per
``(src, channel)`` — so a byte-identical repeat is decoded once and
hands the receiver the same ``Heartbeat`` object again: the identity
test engages over real UDP too, with ``same_as`` behind it whenever the
memo missed.  Both halves lean on what this class does *not* carry: no
timestamp, no per-tick counter.  A field that changes every period
would turn every repeat into a fresh encode and a cold decode
(``tests/runtime/test_decode_once_guard.py`` fails first).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.directory import NodeRecord

__all__ = ["Heartbeat"]


@dataclass(frozen=True, slots=True)
class Heartbeat:
    """One heartbeat on one channel.

    Attributes
    ----------
    record:
        The sender's self description (id, incarnation, services, attrs).
    level:
        Group level of the channel this heartbeat was sent on.
    is_leader:
        Leader flag for this channel.
    suppressed:
        True when the sender sees some leader on this channel (and thus
        will not contend); lets other members run the election correctly
        in overlapping topologies where they cannot see that leader.
    backup:
        The leader's designated backup member (only set by leaders).
    update_seq:
        The sender's latest update sequence number on this channel.  Lets
        receivers detect a lost update even when no further update follows
        (the next heartbeat reveals the gap and triggers a sync poll).
    """

    record: NodeRecord
    level: int
    is_leader: bool
    suppressed: bool
    backup: Optional[str] = None
    update_seq: int = 0

    @property
    def node_id(self) -> str:
        return self.record.node_id

    def same_as(self, other: "Heartbeat") -> bool:
        """Content-equality tuned for the receive fast path.

        Equivalent to ``self == other`` but ordered cheapest-first: the
        scalar election/stream flags almost always differ when anything
        differs, so the (dict-comparing) record equality only runs for
        genuinely unchanged heartbeats — and is skipped entirely when the
        record travelled by reference.  This is what lets the no-change
        short-circuit survive a serialization round-trip, where ``is``
        holds only while the socket's decode memo still has the datagram.
        """
        return (
            self.update_seq == other.update_seq
            and self.is_leader == other.is_leader
            and self.suppressed == other.suppressed
            and self.level == other.level
            and self.backup == other.backup
            and (self.record is other.record or self.record == other.record)
        )
