"""The node-local yellow-page directory.

Every node in a decentralised Neptune cluster keeps its own copy of the
*entire* service directory ("each node is able to access entire yellow page
directory inside a service cluster", Section 1).  Entries are **soft
state**: they exist only while refreshed by heartbeats or relayed updates,
and carry enough bookkeeping for the hierarchical protocol's timeout rules
(entries relayed by a group leader share the leader's lifetime).

N nodes therefore hold N² entries, so an entry is no object of its own
(see :class:`Directory`): one cell in each of four columns, indexed by a
node slot that every directory of one runtime family shares
(:class:`SlotTable`).  None of it is tracked by the cyclic garbage
collector.

The lookup API mirrors the paper's ``MClient::lookup_service`` (Fig. 9):
regular expressions are accepted in both the service name and the partition
list, and matches return the per-machine attribute lists.
"""

from __future__ import annotations

import heapq
import re
from array import array
from dataclasses import dataclass, field, replace
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple, cast,
)

__all__ = ["NodeRecord", "Directory", "SlotTable", "SlotAccess", "BLANK", "parse_partitions"]


def parse_partitions(spec: str) -> FrozenSet[int]:
    """Parse a partition list like ``"1-3,5"`` into ``{1, 2, 3, 5}``.

    Used both when a service registers ("register_service('Retriever',
    '1-3')" announces partitions 1, 2 and 3) and when a lookup uses range
    syntax.  Raises ``ValueError`` on malformed specs.
    """
    parts: set[int] = set()
    spec = spec.strip()
    if not spec:
        return frozenset()
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty chunk in partition spec {spec!r}")
        if "-" in chunk:
            lo_s, _, hi_s = chunk.partition("-")
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError(f"descending range {chunk!r}")
            parts.update(range(lo, hi + 1))
        else:
            parts.add(int(chunk))
    return frozenset(parts)


_RANGE_SPEC = re.compile(r"^[\d,\-\s]+$")


@dataclass(frozen=True, slots=True)
class NodeRecord:
    """One directory entry: everything a node publishes about itself.

    Attributes
    ----------
    node_id:
        Host name (doubles as the unique election ID, like an IP address).
    incarnation:
        Boot epoch; a restarted node announces a higher incarnation so stale
        records about its previous life lose every merge.
    services:
        ``service name -> frozenset of partition IDs`` hosted on the node.
    attrs:
        Key-value pairs: machine configuration (from :class:`MachineInfo`)
        plus any values published through ``MService.update_value``.
    """

    node_id: str
    incarnation: int = 0
    services: Dict[str, FrozenSet[int]] = field(default_factory=dict)
    attrs: Dict[str, str] = field(default_factory=dict)

    def supersedes(self, other: "NodeRecord") -> bool:
        """True if this record is at least as fresh as ``other``."""
        return self.node_id == other.node_id and self.incarnation >= other.incarnation

    def with_service(self, name: str, partitions: str | Iterable[int]) -> "NodeRecord":
        """Functional update used by the provider-side API."""
        parts = (
            parse_partitions(partitions)
            if isinstance(partitions, str)
            else frozenset(int(p) for p in partitions)
        )
        services = dict(self.services)
        services[name] = parts
        return replace(self, services=services)

    def with_attr(self, key: str, value: str) -> "NodeRecord":
        attrs = dict(self.attrs)
        attrs[key] = value
        return replace(self, attrs=attrs)

    def without_attr(self, key: str) -> "NodeRecord":
        attrs = dict(self.attrs)
        attrs.pop(key, None)
        return replace(self, attrs=attrs)


#: The freshness of a cell that holds no entry.  NaN equals nothing, not
#: even itself, so ``fresh[slot] == fresh[slot]`` says the directory holds
#: the slot without reading the record column.
BLANK = float("nan")


class SlotTable:
    """Node id ↔ slot numbers, shared by the directories of one runtime family.

    A slot is a small int naming one node id; every directory on the
    table keeps its entry for that id in the same cell of its own
    columns.  The table counts the directories holding each slot and
    takes a slot back once none does, so ids that come and go (restarts,
    or ids arriving off the wire) cannot grow it past what its
    directories hold.  A freed slot is handed to the next new id.  Slot
    numbers depend on the order ids first appear anywhere on the table;
    no directory observable depends on them.

    One table serves every node of a simulated network and each real
    daemon has its own (see ``NodeRuntime.slot_table``); a bare
    ``Directory(owner)`` makes a private one.
    """

    __slots__ = ("index", "ids", "holders", "free")

    def __init__(self) -> None:
        #: node id -> slot, for every id some directory holds
        self.index: Dict[str, int] = {}
        #: slot -> node id; None for a free slot
        self.ids: List[Optional[str]] = []
        #: slot -> how many directories hold it
        self.holders: List[int] = []
        self.free: List[int] = []

    def __len__(self) -> int:
        return len(self.index)

    def assign(self, nid: str) -> int:
        """A slot for ``nid``, which no directory holds, with one holder."""
        if self.free:
            slot = self.free.pop()
            self.ids[slot] = nid
            self.holders[slot] = 1
        else:
            slot = len(self.ids)
            self.ids.append(nid)
            self.holders.append(1)
        self.index[nid] = slot
        return slot

    def release(self, slot: int) -> None:
        """Drop one holder of ``slot``; the last one frees it."""
        holders = self.holders
        holders[slot] -= 1
        if not holders[slot]:
            del self.index[cast(str, self.ids[slot])]
            self.ids[slot] = None
            self.free.append(slot)


class SlotAccess(NamedTuple):
    """A directory's columns, handed to the hot paths (see :meth:`Directory.slot_access`)."""

    #: node id -> its slot if the directory holds an entry for it, else None
    held: Callable[[str], Optional[int]]
    #: node id -> its slot in the table, held by this directory or not
    slot_of: Callable[[str], Optional[int]]
    #: the table's slot -> node id column
    ids: List[Optional[str]]
    records: List[Optional[NodeRecord]]
    relayers: List[Optional[str]]
    fresh: List[float]


class Directory:
    """Soft-state membership table with idempotent merge semantics.

    The update operation is idempotent and monotone in ``incarnation`` —
    the property the paper leans on when overlapping groups deliver
    duplicate updates ("because the operation caused by an update message at
    each node is idempotent, redundant messages will not cause confusion").

    Storage is columnar.  A :class:`SlotTable` shared with the other
    directories of the runtime family maps node id → slot; the directory
    keeps one column per field, indexed by slot: the record (None where it
    holds no entry), the relayer (None for a direct entry), the freshness
    (:data:`BLANK` where it holds no entry) and an insertion stamp
    (``array('q')``).  Freshness stays a list of floats: it is written
    once per received heartbeat, an ``array('d')`` store costs about
    45 ns more than a list store, and the floats are the event clock's,
    shared by every cell written in one event.  Insertion stamps give the
    order every purge reports the dead in and :meth:`snapshot` lists
    entries in (seeded simulation traces depend on it); slot numbers
    never show.  An insert takes a slot hold, a removal blanks the cells
    and gives the hold back; columns grow to the table's length and never
    shrink.

    Hot-path engine (mirrors the net layer's version-validated caches):

    * **Deadline-driven expiry (direct entries)** — every direct entry
      keeps a ``(freshness, stamp, node_id)`` record on a min-heap and the
      periodic ``purge_stale`` is heap pops: amortised O(1) per refresh
      instead of O(members) per tick.  ``_stamps`` holds each direct
      entry's live stamp; a record whose stamp is not live (re-keyed,
      reclassified or removed since the push) is discarded when it
      surfaces — lazy deletion, as in the simulator's event queue.
    * **Vouch-gated expiry (relayed entries)** — relayed entries are only
      *counted* per relayer.  A relayed entry's effective freshness is
      ``max(last_refresh, relayer's vouch time)``, and an alive relayer
      re-vouches every heartbeat period — so in steady state
      ``purge_stale_relayed`` is one clock comparison per relayer
      (typically 1–3 per node).  A lapsed vouch walks the columns for
      that relayer's entries, as do ``purge_relayed_by``, ``reattribute``
      and ``relayed_entries``: rare events, O(table) each.
    * **Versioned views** — :attr:`version` counts structural changes (key
      set or record payloads); :meth:`members`, :meth:`records` and
      :meth:`snapshot` serve cached tuples rebuilt only when the version
      moved, the same contract as ``Topology.version`` one layer down.

    Staleness predicates: a direct entry is dead iff
    ``now - last_refresh > timeout``; a relayed entry is dead iff
    ``now - max(last_refresh, relayer's vouch time) > timeout``.
    """

    def __init__(self, owner: str, slots: Optional[SlotTable] = None) -> None:
        self.owner = owner
        self._table = slots if slots is not None else SlotTable()
        self._records: List[Optional[NodeRecord]] = []
        self._relayers: List[Optional[str]] = []
        self._fresh: List[float] = []
        self._order = array("q")
        self._inserts = 0
        self._count = 0
        self._held = self._prober()
        self._access = SlotAccess(
            self._held, self._table.index.get, self._table.ids,
            self._records, self._relayers, self._fresh,
        )
        self._relayed_counts: Dict[str, int] = {}
        # relayer -> last time its liveness re-vouched for its entries.
        # An alive leader's heartbeat keeps everything it relayed fresh in
        # O(1) ("the membership information relayed by a group leader has
        # the same life time as the leader itself").
        self._vouch_times: Dict[str, float] = {}
        # Deadline heap for direct entries: (freshness key, stamp, node_id).
        # A key is a lower bound on the entry's freshness: freshness bumps
        # leave the heap alone, and the purge re-keys on surfacing.
        self._direct_heap: List[Tuple[float, int, str]] = []
        self._stamps: Dict[str, int] = {}
        self._stamp = 0
        self._version = 0
        self._members_cache: Tuple[int, Tuple[str, ...]] = (-1, ())
        self._records_cache: Tuple[int, Tuple[NodeRecord, ...]] = (-1, ())
        self._snapshot_cache: Tuple[int, Dict[str, NodeRecord]] = (-1, {})

    # ------------------------------------------------------------------
    # Hot-path plumbing
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone counter of structural changes (keys or record payloads).

        Freshness-only updates (``refresh``, ``vouch``, ``reattribute``) do
        not move it, so cached views stay valid across heartbeat storms.
        """
        return self._version

    @property
    def slot_table(self) -> SlotTable:
        return self._table

    def _prober(self) -> Callable[[str], Optional[int]]:
        # A closure over the columns rather than a method: the absorb and
        # receive paths probe once per op, and the columns are only ever
        # mutated in place.
        slot_of = self._table.index.get
        records = self._records

        def held(nid: str) -> Optional[int]:
            slot = slot_of(nid)
            if slot is not None and slot < len(records) and records[slot] is not None:
                return slot
            return None

        return held

    def slot_access(self) -> SlotAccess:
        """The columns themselves, for the hot paths.

        ``held(node_id)`` is the entry's slot or None; its cells are
        ``records[slot]``, ``relayers[slot]`` and ``fresh[slot]``.  The
        same test inlined is ``slot = slot_of(node_id)``, then ``slot is
        not None and slot < len(records) and records[slot] is not None``.
        A cell that holds no entry has record None and freshness
        :data:`BLANK`, and only cells that hold one have either other
        value.  Callers write only ``fresh`` of held cells, forward in
        time.  Every object lives as long as the directory.  A cached
        slot names the node's current entry while ``ids[slot]`` is its id
        and the cell is held: the table frees a slot only once no
        directory holds it, and the columns never shrink, so a stale slot
        still indexes them.
        """
        return self._access

    def _grow(self) -> None:
        """Extend every column to the table's length."""
        more = len(self._table.ids) - len(self._records)
        self._records += [None] * more
        self._relayers += [None] * more
        self._fresh += [BLANK] * more
        self._order.frombytes(bytes(8 * more))

    def _note_deadline(self, nid: str, key: float) -> None:
        """File a heap record for *direct* entry ``nid`` at ``key``."""
        if nid == self.owner:
            return  # the owner never expires; keep it out of the heap
        self._stamp += 1
        self._stamps[nid] = self._stamp
        heapq.heappush(self._direct_heap, (key, self._stamp, nid))

    def _attach(self, nid: str, relayer: Optional[str], now: float) -> None:
        """Count ``nid`` under ``relayer``, or file its deadline if direct."""
        if relayer is None:
            self._note_deadline(nid, now)
        else:
            self._relayed_counts[relayer] = self._relayed_counts.get(relayer, 0) + 1

    def _detach(self, nid: str, relayer: Optional[str]) -> None:
        if relayer is None:
            self._stamps.pop(nid, None)  # orphans its heap record
        else:
            counts = self._relayed_counts
            counts[relayer] -= 1
            if not counts[relayer]:
                del counts[relayer]

    def _touch(
        self, nid: str, slot: int, now: float, relayed_by: Optional[str]
    ) -> bool:
        """Bump freshness and set the relayer; True if the relayer moved."""
        self._fresh[slot] = now
        relayers = self._relayers
        old = relayers[slot]
        if old == relayed_by:
            return False
        relayers[slot] = relayed_by
        self._detach(nid, old)
        self._attach(nid, relayed_by, now)
        return True

    def _in_order(self, slots: List[int]) -> List[int]:
        """``slots`` sorted by insertion stamp."""
        order = self._order
        slots.sort(key=lambda slot: order[slot])
        return slots

    def _attributed(self, relayer: str) -> List[int]:
        """Slots of ``relayer``'s entries, in insertion order."""
        return self._in_order(
            [slot for slot, rb in enumerate(self._relayers) if rb == relayer]
        )

    def _drop(self, dead: List[int]) -> List[str]:
        """Remove the entries at slots ``dead``; their ids, in that order."""
        ids = cast("List[str]", self._table.ids)
        records, relayers, fresh = self._records, self._relayers, self._fresh
        release = self._table.release
        gone: List[str] = []
        for slot in dead:
            nid = ids[slot]
            gone.append(nid)
            self._detach(nid, relayers[slot])
            records[slot] = relayers[slot] = None
            fresh[slot] = BLANK
            release(slot)
        self._count -= len(dead)
        self._version += 1
        return gone

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def upsert(
        self,
        record: NodeRecord,
        now: float,
        relayed_by: Optional[str] = None,
    ) -> bool:
        """Merge ``record``; returns True if the directory visibly changed.

        A record loses against an existing entry with a higher incarnation.
        Equal-incarnation records refresh the timestamp (and may update the
        payload, e.g. a changed service value at the same boot epoch).
        """
        slot = self._held(record.node_id)
        if slot is None:
            self._insert((record,), now, relayed_by)
            return True
        records = self._records
        cur = cast(NodeRecord, records[slot])
        if cur.incarnation > record.incarnation:
            return False
        if cur is record:
            # Same payload object (records travel by reference in the
            # simulator, and senders intern unchanged heartbeats): a pure
            # freshness/attribution bump, no deep equality.
            self._touch(record.node_id, slot, now, relayed_by)
            return False
        changed = cur != record
        records[slot] = record
        if self._touch(record.node_id, slot, now, relayed_by):
            self._version += 1
            return changed
        # A content-equal re-upsert with an unchanged relayer is a pure
        # freshness bump and must not invalidate the cached views — a real
        # transport rebuilds every payload from bytes, so the identity
        # early-out above never fires there and this path runs once per
        # received heartbeat.
        if changed:
            self._version += 1
        if relayed_by is None:
            self._note_deadline(record.node_id, now)
        return changed

    def insert_new(
        self,
        records: Sequence[NodeRecord],
        now: float,
        relayed_by: Optional[str] = None,
    ) -> int:
        """Insert a run of records known to be absent (the absorb first sights).

        Each record gets exactly :meth:`upsert`'s new-entry branch, in
        order, without re-probing — the caller just did the lookups.  A
        record whose id the directory holds by then (the run named it
        twice) ends the run: the return value is how many were inserted,
        and the caller merges that record and passes the rest again.
        Formation writes each update message's first sights with one call.
        """
        return self._insert(records, now, relayed_by)

    def _insert(
        self, records: Sequence[NodeRecord], now: float, relayed_by: Optional[str]
    ) -> int:
        # Private, so a traced run counts an upsert as one directory call.
        table = self._table
        slot_of, holders = table.index.get, table.holders
        column, relayers, fresh, order = (
            self._records, self._relayers, self._fresh, self._order
        )
        stamp = self._inserts
        size = len(column)
        for record in records:
            nid = record.node_id
            slot = slot_of(nid)
            if slot is None:
                slot = table.assign(nid)
            elif slot < size and column[slot] is not None:
                break  # held: named twice in the run
            else:
                holders[slot] += 1
            if slot >= size:
                self._grow()
                size = len(column)
            column[slot] = record
            relayers[slot] = relayed_by
            fresh[slot] = now
            stamp += 1
            order[slot] = stamp
        inserted = stamp - self._inserts
        self._inserts = stamp
        if inserted:
            self._count += inserted
            self._version += inserted
            if relayed_by is None:
                for record in records[:inserted]:
                    self._note_deadline(record.node_id, now)
            else:
                counts = self._relayed_counts
                counts[relayed_by] = counts.get(relayed_by, 0) + inserted
        return inserted

    def refresh(self, node_id: str, now: float, relayed_by: Optional[str] = None) -> bool:
        """Bump the freshness of an existing entry (heartbeat w/o changes)."""
        slot = self._held(node_id)
        if slot is None:
            return False
        self._touch(node_id, slot, now, relayed_by)
        return True

    def remove(self, node_id: str) -> bool:
        """Drop an entry (failure detected or departure announced)."""
        slot = self._held(node_id)
        if slot is None:
            return False
        self._drop([slot])
        return True

    def purge_stale(
        self,
        now: float,
        timeout: float,
        incarnations: Optional[Dict[str, int]] = None,
    ) -> List[str]:
        """Remove directly-heard entries not refreshed within ``timeout``.

        Returns the purged node ids.  Entries for the owner itself never
        expire (a node always knows it is alive).  When ``incarnations``
        is given it is filled with the purged entries' incarnations, so
        callers can build guarded remove-updates after the fact.

        When a stale-keyed heap record surfaces but its entry was refreshed
        since, it is re-keyed at the current freshness and pushed back — at
        most once per timeout window per entry, so a quiet period costs
        O(live entries / timeout periods), not O(refreshes).
        """
        heap = self._direct_heap
        stamps = self._stamps
        slot_of = self._table.index
        records, fresh = self._records, self._fresh
        dead: List[int] = []
        while heap:
            key, stamp, nid = heap[0]
            if stamps.get(nid) != stamp:
                heapq.heappop(heap)  # orphaned by remove/reclass/re-key
                continue
            if not now - key > timeout:
                break  # key <= freshness, so the rest is fresh too
            heapq.heappop(heap)
            slot = slot_of[nid]
            last = fresh[slot]
            if not now - last > timeout:
                self._note_deadline(nid, last)  # refreshed since: re-key
                continue
            if incarnations is not None:
                incarnations[nid] = cast(NodeRecord, records[slot]).incarnation
            dead.append(slot)
        if not dead:
            return []
        return self._drop(self._in_order(dead))  # heap order -> insertion order

    def purge_relayed_by(self, leader: str) -> List[str]:
        """Drop every entry vouched for by ``leader`` (leader died).

        Implements the timeout-protocol rule that "membership information
        relayed by a group leader has the same life time as the leader
        itself".
        """
        if leader not in self._relayed_counts:
            return []
        return self._drop(self._attributed(leader))

    def purge_stale_relayed(
        self,
        now: float,
        timeout: float,
        incarnations: Optional[Dict[str, int]] = None,
    ) -> List[str]:
        """Remove relayed entries not refreshed or re-vouched in ``timeout``.

        An entry counts as fresh if either it was refreshed directly or its
        relayer vouched (see :meth:`vouch`) within the window.  When
        ``incarnations`` is given it is filled with the purged entries'
        incarnations for after-the-fact remove-update guards.

        A relayer that vouched within the window covers all its entries, so
        the steady-state cost is one comparison per relayer.  Only a lapsed
        vouch walks the columns — that happens while a relayer is dying,
        and ``purge_relayed_by`` usually drops its entries first.
        """
        vouch = self._vouch_times
        neg_inf = float("-inf")
        lapsed = {
            relayer: vouched
            for relayer in self._relayed_counts
            if now - (vouched := vouch.get(relayer, neg_inf)) > timeout
        }
        if not lapsed:
            return []
        owner = self._table.index.get(self.owner)
        fresh = self._fresh
        dead: List[int] = []
        for slot, rb in enumerate(self._relayers):
            if rb is None or slot == owner:
                continue  # direct, or the owner (never expires)
            vouched = lapsed.get(rb)
            if vouched is None:
                continue
            effective = fresh[slot]
            if effective < vouched:
                effective = vouched
            if now - effective > timeout:
                dead.append(slot)
        if not dead:
            return []
        self._in_order(dead)
        if incarnations is not None:
            ids = cast("List[str]", self._table.ids)
            records = cast("List[NodeRecord]", self._records)
            for slot in dead:
                incarnations[ids[slot]] = records[slot].incarnation
        return self._drop(dead)

    def vouch(self, relayer: str, now: float) -> None:
        """Record that ``relayer`` is alive, keeping its relayed entries fresh."""
        self._vouch_times[relayer] = now

    def reattribute(self, old_relayer: str, new_relayer: str) -> int:
        """Move vouching responsibility from ``old_relayer`` to ``new_relayer``.

        Called on leader failover: the new leader inherits the old one's
        vouched entries so they survive until it re-syncs.  Returns the
        number of entries moved.
        """
        counts = self._relayed_counts
        moved = counts.pop(old_relayer, 0)
        if not moved:
            return 0
        relayers = self._relayers
        for slot in self._attributed(old_relayer):
            relayers[slot] = new_relayer
        counts[new_relayer] = counts.get(new_relayer, 0) + moved
        if old_relayer in self._vouch_times:
            prev = self._vouch_times[old_relayer]
            self._vouch_times[new_relayer] = max(prev, self._vouch_times.get(new_relayer, prev))
        return moved

    def relayed_entries(self, relayer: str) -> List[str]:
        """Node ids currently vouched for by ``relayer`` (sorted)."""
        if relayer not in self._relayed_counts:
            return []
        ids = cast("List[str]", self._table.ids)
        return sorted(ids[slot] for slot in self._attributed(relayer))

    def clear(self) -> None:
        release = self._table.release
        for slot in self._live():
            release(slot)
        blank = [None] * len(self._records)
        self._records[:] = blank
        self._relayers[:] = blank
        self._fresh[:] = [BLANK] * len(blank)
        self._count = 0
        self._relayed_counts.clear()
        self._vouch_times.clear()
        self._direct_heap.clear()
        self._stamps.clear()
        self._version += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _live(self) -> List[int]:
        """Slots this directory holds, in slot order."""
        return [slot for slot, rec in enumerate(self._records) if rec is not None]

    def __contains__(self, node_id: str) -> bool:
        return self._held(node_id) is not None

    def __len__(self) -> int:
        return self._count

    def get(self, node_id: str) -> Optional[NodeRecord]:
        slot = self._held(node_id)
        return None if slot is None else self._records[slot]

    def last_refresh(self, node_id: str) -> Optional[float]:
        slot = self._held(node_id)
        return None if slot is None else self._fresh[slot]

    def relayed_by(self, node_id: str) -> Optional[str]:
        slot = self._held(node_id)
        return None if slot is None else self._relayers[slot]

    def members(self) -> Tuple[str, ...]:
        """All known node ids, sorted (deterministic iteration).

        Served from a cache validated against :attr:`version`; rebuilding
        only happens after a structural change, not per heartbeat tick.
        """
        ver, cached = self._members_cache
        if ver != self._version:
            ids = cast("List[str]", self._table.ids)
            cached = tuple(sorted(ids[slot] for slot in self._live()))
            self._members_cache = (self._version, cached)
        return cached

    def records(self) -> Tuple[NodeRecord, ...]:
        """All records in ``members()`` order, cached like :meth:`members`."""
        ver, cached = self._records_cache
        if ver != self._version:
            slot_of = self._table.index
            records = cast("List[NodeRecord]", self._records)
            cached = tuple(records[slot_of[nid]] for nid in self.members())
            self._records_cache = (self._version, cached)
        return cached

    def snapshot(self) -> Dict[str, NodeRecord]:
        """Copy of the table, for bootstrap transfers and assertions.

        Entries come in insertion order.  The returned dict is the
        caller's to mutate; it is materialised from a version-validated
        cache.
        """
        ver, cached = self._snapshot_cache
        if ver != self._version:
            ids = cast("List[str]", self._table.ids)
            records = cast("List[NodeRecord]", self._records)
            cached = {ids[slot]: records[slot] for slot in self._in_order(self._live())}
            self._snapshot_cache = (self._version, cached)
        return dict(cached)

    def lookup_service(
        self,
        service: str,
        partition: Optional[str] = None,
    ) -> List[NodeRecord]:
        """Find nodes providing ``service`` (regex) on ``partition``.

        ``partition`` may be ``None`` (any), a range list like ``"1-3,5"``
        (matches nodes hosting *any* listed partition), or a regular
        expression matched against individual partition numbers.
        """
        svc_re = re.compile(service)
        wanted: Optional[FrozenSet[int]] = None
        part_re: Optional[re.Pattern[str]] = None
        if partition is not None:
            if _RANGE_SPEC.match(partition):
                wanted = parse_partitions(partition)
            else:
                part_re = re.compile(partition)
        out: List[NodeRecord] = []
        for record in self.records():
            for name, parts in record.services.items():
                if not svc_re.fullmatch(name):
                    continue
                if wanted is not None and not (parts & wanted):
                    continue
                if part_re is not None and not any(
                    part_re.fullmatch(str(p)) for p in parts
                ):
                    continue
                out.append(record)
                break
        return out
