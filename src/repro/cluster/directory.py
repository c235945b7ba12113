"""The node-local yellow-page directory.

Every node in a decentralised Neptune cluster keeps its own copy of the
*entire* service directory ("each node is able to access entire yellow page
directory inside a service cluster", Section 1).  Entries are **soft
state**: they exist only while refreshed by heartbeats or relayed updates,
and carry enough bookkeeping for the hierarchical protocol's timeout rules
(entries relayed by a group leader share the leader's lifetime).

N nodes therefore hold N² entries, so an entry is no object of its own
(see :class:`Directory`): a dict slot and four list cells, none of which
the cyclic garbage collector tracks.

The lookup API mirrors the paper's ``MClient::lookup_service`` (Fig. 9):
regular expressions are accepted in both the service name and the partition
list, and matches return the per-machine attribute lists.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

__all__ = ["NodeRecord", "Directory", "parse_partitions", "RECORD", "FRESH", "RELAYER"]


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


#: An entry's cells, as displacements from its offset, which indexes the
#: entry's key cell (its node id).  RELAYER is None for a direct entry.
RECORD, FRESH, RELAYER = 1, 2, 3
_WIDTH = 4
_BLANK = (None,) * _WIDTH

#: Process-wide intern table of offsets: one int object per offset value,
#: where N² index values would otherwise each hold a fresh 28-byte int.
#: It maps every key to an equal value, so sharing it is unobservable.
_OFFSETS: Dict[int, int] = {}


class Directory:
    """Soft-state membership table with idempotent merge semantics.

    The update operation is idempotent and monotone in ``incarnation`` —
    the property the paper leans on when overlapping groups deliver
    duplicate updates ("because the operation caused by an update message at
    each node is idempotent, redundant messages will not cause confusion").

    Storage is a flat table.  ``_index`` maps node id → offset and, being
    a dict, iterates in insertion order — the order every purge reports
    the dead in (seeded simulation traces depend on it).  ``_cells`` holds
    each entry's ``(node id, record, last_refresh, relayed_by)`` at its
    offset; a removal blanks the four cells and frees them for the next
    insert, and the list never shrinks (:meth:`clear` blanks it).

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
      (typically 1–3 per node).  A lapsed vouch walks the table for that
      relayer's entries, as do ``purge_relayed_by``, ``reattribute`` and
      ``relayed_entries``: rare events, O(directory) each.
    * **Versioned views** — :attr:`version` counts structural changes (key
      set or record payloads); :meth:`members`, :meth:`records` and
      :meth:`snapshot` serve cached tuples rebuilt only when the version
      moved, the same contract as ``Topology.version`` one layer down.

    Staleness predicates: a direct entry is dead iff
    ``now - last_refresh > timeout``; a relayed entry is dead iff
    ``now - max(last_refresh, relayer's vouch time) > timeout``.
    """

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self._index: Dict[str, int] = {}
        self._cells: List[Any] = []  # typed by position: see RECORD etc.
        self._free: List[int] = []
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

    def cell_access(self) -> Tuple[Callable[[str], Optional[int]], List[object]]:
        """``(offset_of, cells)``: the table itself, for the hot paths.

        ``offset_of(node_id)`` is the entry's offset or None; its cells are
        ``cells[offset]`` (the node id) and ``cells[offset + RECORD]`` /
        ``FRESH`` / ``RELAYER``.  Callers write only ``FRESH``, forward in
        time.  Both objects live as long as the directory.  A cached offset
        names the node's current entry while ``cells[offset]`` equals its
        id: removal blanks the key cell, and a stale offset still indexes
        the never-shrinking list.
        """
        return self._index.get, self._cells

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
        self, nid: str, off: int, now: float, relayed_by: Optional[str]
    ) -> bool:
        """Bump freshness and set the relayer; True if the relayer moved."""
        cells = self._cells
        cells[off + FRESH] = now
        old = cells[off + RELAYER]
        if old == relayed_by:
            return False
        cells[off + RELAYER] = relayed_by
        self._detach(nid, old)
        self._attach(nid, relayed_by, now)
        return True

    def _attributed(self, relayer: str) -> List[Tuple[str, int]]:
        """``(node id, offset)`` of ``relayer``'s entries, in insertion order."""
        cells = self._cells
        return [(nid, off) for nid, off in self._index.items() if cells[off + RELAYER] == relayer]

    def _drop(self, dead: List[Tuple[str, int]]) -> List[str]:
        """Remove the ``(node id, offset)`` entries in ``dead``; their ids."""
        index, cells, free = self._index, self._cells, self._free
        for nid, off in dead:
            del index[nid]
            self._detach(nid, cells[off + RELAYER])
            cells[off : off + _WIDTH] = _BLANK
            free.append(off)
        self._version += 1
        return [nid for nid, _off in dead]

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
        off = self._index.get(record.node_id)
        if off is None:
            self._insert(record, now, relayed_by)
            return True
        cells = self._cells
        cur = cells[off + RECORD]
        if cur.incarnation > record.incarnation:
            return False
        if cur is record:
            # Same payload object (records travel by reference in the
            # simulator, and senders intern unchanged heartbeats): a pure
            # freshness/attribution bump, no deep equality.
            self._touch(record.node_id, off, now, relayed_by)
            return False
        changed = cur != record
        cells[off + RECORD] = record
        if self._touch(record.node_id, off, now, relayed_by):
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
        record: NodeRecord,
        now: float,
        relayed_by: Optional[str] = None,
    ) -> None:
        """Insert a record known to be absent (the absorb first-sight path).

        Exactly :meth:`upsert`'s new-entry branch without re-probing the
        index — the caller just did the lookup.  Formation runs this once
        per node pair.
        """
        self._insert(record, now, relayed_by)

    def _insert(self, record: NodeRecord, now: float, relayed_by: Optional[str]) -> None:
        # Private, so a traced run counts an upsert as one directory call.
        nid = record.node_id
        cells = self._cells
        if self._free:
            off = self._free.pop()
            cells[off : off + _WIDTH] = (nid, record, now, relayed_by)
        else:
            off = _OFFSETS.setdefault(len(cells), len(cells))
            cells += (nid, record, now, relayed_by)
        self._index[nid] = off
        self._attach(nid, relayed_by, now)
        self._version += 1

    def refresh(self, node_id: str, now: float, relayed_by: Optional[str] = None) -> bool:
        """Bump the freshness of an existing entry (heartbeat w/o changes)."""
        off = self._index.get(node_id)
        if off is None:
            return False
        self._touch(node_id, off, now, relayed_by)
        return True

    def remove(self, node_id: str) -> bool:
        """Drop an entry (failure detected or departure announced)."""
        off = self._index.get(node_id)
        if off is None:
            return False
        self._drop([(node_id, off)])
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
        index = self._index
        cells = self._cells
        dead: List[Tuple[str, int]] = []
        while heap:
            key, stamp, nid = heap[0]
            if stamps.get(nid) != stamp:
                heapq.heappop(heap)  # orphaned by remove/reclass/re-key
                continue
            if not now - key > timeout:
                break  # key <= freshness, so the rest is fresh too
            heapq.heappop(heap)
            off = index[nid]
            fresh = cells[off + FRESH]
            if not now - fresh > timeout:
                self._note_deadline(nid, fresh)  # refreshed since: re-key
                continue
            if incarnations is not None:
                incarnations[nid] = cells[off + RECORD].incarnation
            dead.append((nid, off))
        if not dead:
            return []
        if len(dead) > 1:  # heap order -> insertion order
            doomed = dict(dead)
            dead = [(nid, off) for nid, off in index.items() if nid in doomed]
        return self._drop(dead)

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
        vouch walks the table — that happens while a relayer is dying, and
        ``purge_relayed_by`` usually drops its entries first.
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
        cells = self._cells
        dead: List[Tuple[str, int]] = []
        for nid, off in self._index.items():
            vouched = lapsed.get(cells[off + RELAYER])
            if vouched is None or nid == self.owner:
                continue  # direct, vouched, or the owner (never expires)
            effective = cells[off + FRESH]
            if effective < vouched:
                effective = vouched
            if now - effective > timeout:
                if incarnations is not None:
                    incarnations[nid] = cells[off + RECORD].incarnation
                dead.append((nid, off))
        return self._drop(dead) if dead else []

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
        cells = self._cells
        for _nid, off in self._attributed(old_relayer):
            cells[off + RELAYER] = new_relayer
        counts[new_relayer] = counts.get(new_relayer, 0) + moved
        if old_relayer in self._vouch_times:
            prev = self._vouch_times[old_relayer]
            self._vouch_times[new_relayer] = max(prev, self._vouch_times.get(new_relayer, prev))
        return moved

    def relayed_entries(self, relayer: str) -> List[str]:
        """Node ids currently vouched for by ``relayer`` (sorted)."""
        if relayer not in self._relayed_counts:
            return []
        return sorted(nid for nid, _off in self._attributed(relayer))

    def clear(self) -> None:
        self._free += self._index.values()
        self._cells[:] = _BLANK * (len(self._cells) // _WIDTH)
        self._index.clear()
        self._relayed_counts.clear()
        self._vouch_times.clear()
        self._direct_heap.clear()
        self._stamps.clear()
        self._version += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, node_id: str) -> bool:
        return node_id in self._index

    def __len__(self) -> int:
        return len(self._index)

    def get(self, node_id: str) -> Optional[NodeRecord]:
        off = self._index.get(node_id)
        return None if off is None else self._cells[off + RECORD]

    def last_refresh(self, node_id: str) -> Optional[float]:
        off = self._index.get(node_id)
        return None if off is None else self._cells[off + FRESH]

    def relayed_by(self, node_id: str) -> Optional[str]:
        off = self._index.get(node_id)
        return None if off is None else self._cells[off + RELAYER]

    def members(self) -> Tuple[str, ...]:
        """All known node ids, sorted (deterministic iteration).

        Served from a cache validated against :attr:`version`; rebuilding
        only happens after a structural change, not per heartbeat tick.
        """
        ver, cached = self._members_cache
        if ver != self._version:
            cached = tuple(sorted(self._index))
            self._members_cache = (self._version, cached)
        return cached

    def records(self) -> Tuple[NodeRecord, ...]:
        """All records in ``members()`` order, cached like :meth:`members`."""
        ver, cached = self._records_cache
        if ver != self._version:
            index, cells = self._index, self._cells
            cached = tuple(cells[index[nid] + RECORD] for nid in self.members())
            self._records_cache = (self._version, cached)
        return cached

    def snapshot(self) -> Dict[str, NodeRecord]:
        """Copy of the table, for bootstrap transfers and assertions.

        The returned dict is the caller's to mutate; it is materialised
        from a version-validated cache.
        """
        ver, cached = self._snapshot_cache
        if ver != self._version:
            cells = self._cells
            cached = {nid: cells[off + RECORD] for nid, off in self._index.items()}
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
