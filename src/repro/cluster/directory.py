"""The node-local yellow-page directory.

Every node in a decentralised Neptune cluster keeps its own copy of the
*entire* service directory ("each node is able to access entire yellow page
directory inside a service cluster", Section 1).  Entries are **soft
state**: they exist only while refreshed by heartbeats or relayed updates,
and carry enough bookkeeping for the hierarchical protocol's timeout rules
(entries relayed by a group leader share the leader's lifetime).

The lookup API mirrors the paper's ``MClient::lookup_service`` (Fig. 9):
regular expressions are accepted in both the service name and the partition
list, and matches return the per-machine attribute lists.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

__all__ = ["NodeRecord", "Directory", "parse_partitions"]


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


@dataclass(slots=True)
class _Entry:
    record: NodeRecord
    last_refresh: float
    relayed_by: Optional[str]  # leader that vouches for this entry, None = heard directly
    #: token of this entry's one live deadline-heap record (lazy deletion)
    stamp: int = 0
    #: dict-insertion rank: purges report dead entries in insertion
    #: order, whatever order the heap or the groups yield them in (trace
    #: determinism)
    order: int = 0
    #: False once this entry left the directory.  Receivers cache entry
    #: references (see ``entry_view``) to skip the full-table probe on
    #: no-change heartbeats; the flag is how a cached reference learns
    #: it went stale.  A re-added node gets a *new* entry, so a live
    #: entry is always the directory's current one for its node id.
    live: bool = True


class Directory:
    """Soft-state membership table with idempotent merge semantics.

    The update operation is idempotent and monotone in ``incarnation`` —
    the property the paper leans on when overlapping groups deliver
    duplicate updates ("because the operation caused by an update message at
    each node is idempotent, redundant messages will not cause confusion").

    Hot-path engine (mirrors the net layer's version-validated caches):

    * **Deadline-driven expiry (direct entries)** — every direct entry
      keeps a ``(freshness, stamp, node_id)`` record on a min-heap and the
      periodic ``purge_stale`` is heap pops: amortised O(1) per refresh
      instead of O(members) per tick.  Stale heap records (an entry
      refreshed since the push, reclassified, or removed) are invalidated
      by ``stamp`` mismatch and discarded when they surface — lazy
      deletion, as in the simulator's event queue.
    * **Vouch-gated expiry (relayed entries)** — relayed entries are
      indexed per relayer.  A relayed entry's effective freshness is
      ``max(last_refresh, relayer's vouch time)``, and an alive relayer
      re-vouches every heartbeat period — so in steady state
      ``purge_stale_relayed`` is one clock comparison per *relayer*
      (typically 1–3 per node) that skips the whole group, instead of any
      per-entry work.  Only when a relayer's vouch lapses is its group
      scanned entry-by-entry.  This is what keeps the purge tick flat in
      directory size at 10k-node scale.
    * **Versioned views** — :attr:`version` counts structural changes (key
      set or record payloads); :meth:`members`, :meth:`records` and
      :meth:`snapshot` serve cached tuples rebuilt only when the version
      moved, the same contract as ``Topology.version`` one layer down.

    Staleness predicates: a direct entry is dead iff
    ``now - last_refresh > timeout``; a relayed entry is dead iff
    ``now - max(last_refresh, relayer's vouch time) > timeout``.  Both
    purges report the dead in insertion order, which seeded simulation
    traces depend on.
    """

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self._entries: Dict[str, _Entry] = {}
        # relayer -> last time its liveness re-vouched for its entries.
        # An alive leader's heartbeat keeps everything it relayed fresh in
        # O(1) ("the membership information relayed by a group leader has
        # the same life time as the leader itself").
        self._vouch_times: Dict[str, float] = {}
        # Deadline heap for direct entries: (freshness key, stamp, node_id).
        # A record is live iff its stamp equals the entry's current stamp;
        # every freshness/classification change bumps the stamp and pushes
        # a new record, orphaning the old one.
        self._direct_heap: List[Tuple[float, int, str]] = []
        # relayer -> insertion-ordered set (dict keyed by node id) of the
        # entries it currently vouches for.
        self._relayed_groups: Dict[str, Dict[str, None]] = {}
        self._stamp = 0
        self._order = 0
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

    def _note_deadline(self, nid: str, entry: _Entry, key: float) -> None:
        """Push a *direct* ``entry``'s current freshness onto the heap."""
        if nid == self.owner:
            return  # the owner never expires; keep it out of the heap
        self._stamp += 1
        entry.stamp = self._stamp
        heapq.heappush(self._direct_heap, (key, entry.stamp, nid))

    def _group_add(self, nid: str, relayer: str) -> None:
        groups = self._relayed_groups
        group = groups.get(relayer)
        if group is None:
            groups[relayer] = {nid: None}
        else:
            group[nid] = None

    def _group_discard(self, nid: str, relayer: str) -> None:
        group = self._relayed_groups.get(relayer)
        if group is not None:
            group.pop(nid, None)
            if not group:
                del self._relayed_groups[relayer]

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
        nid = record.node_id
        cur = self._entries.get(nid)
        if cur is not None and cur.record.incarnation > record.incarnation:
            return False
        if cur is not None and cur.record is record:
            # Same payload object (records travel by reference in the
            # simulator, and senders intern unchanged heartbeats): a pure
            # freshness/attribution bump, no deep equality, no new entry.
            cur.last_refresh = now
            old = cur.relayed_by
            if old != relayed_by:
                cur.relayed_by = relayed_by
                if old is not None:
                    self._group_discard(nid, old)
                if relayed_by is not None:
                    self._group_add(nid, relayed_by)
                else:
                    # Became direct: its old heap record (if any) was
                    # orphaned by the reclass, so file a live one.  Pure
                    # freshness bumps leave the heap alone — the purge
                    # loop re-keys stale-keyed records on surfacing.
                    self._note_deadline(nid, cur, now)
            return False
        changed = cur is None or cur.record != record
        if cur is None:
            self._order += 1
            entry = _Entry(record, now, relayed_by, order=self._order)
            self._entries[nid] = entry
            if relayed_by is not None:
                self._group_add(nid, relayed_by)
            self._version += 1
        else:
            entry = cur
            old = entry.relayed_by
            entry.record = record
            entry.last_refresh = now
            entry.relayed_by = relayed_by
            if old != relayed_by:
                if old is not None:
                    self._group_discard(nid, old)
                if relayed_by is not None:
                    self._group_add(nid, relayed_by)
            if changed or old != relayed_by:
                # A content-equal re-upsert with an unchanged relayer is a
                # pure freshness bump and must not invalidate the cached
                # views — a real transport rebuilds every payload from
                # bytes, so the identity early-out above never fires there
                # and this path runs once per received heartbeat.
                self._version += 1
        if relayed_by is None:
            self._note_deadline(nid, entry, now)
        return changed

    def insert_new(
        self,
        record: NodeRecord,
        now: float,
        relayed_by: Optional[str] = None,
    ) -> None:
        """Insert a record known to be absent (the absorb first-sight path).

        Exactly :meth:`upsert`'s ``cur is None`` branch without re-probing
        the entries table — the caller just did the lookup.  Formation
        runs this once per node pair, which makes the saved probe and
        incarnation branches measurable at the 10k scale.
        """
        nid = record.node_id
        self._order += 1
        entry = _Entry(record, now, relayed_by, order=self._order)
        self._entries[nid] = entry
        if relayed_by is not None:
            # _group_add, inlined: one insert per node pair at formation.
            groups = self._relayed_groups
            group = groups.get(relayed_by)
            if group is None:
                groups[relayed_by] = {nid: None}
            else:
                group[nid] = None
        self._version += 1
        if relayed_by is None:
            self._note_deadline(nid, entry, now)

    def refresh(self, node_id: str, now: float, relayed_by: Optional[str] = None) -> bool:
        """Bump the freshness of an existing entry (heartbeat w/o changes)."""
        entry = self._entries.get(node_id)
        if entry is None:
            return False
        entry.last_refresh = now
        old = entry.relayed_by
        if (relayed_by is not None or old is not None) and old != relayed_by:
            entry.relayed_by = relayed_by
            if old is not None:
                self._group_discard(node_id, old)
            if relayed_by is not None:
                self._group_add(node_id, relayed_by)
            else:
                self._note_deadline(node_id, entry, now)  # became direct
        return True

    def remove(self, node_id: str) -> bool:
        """Drop an entry (failure detected or departure announced)."""
        entry = self._entries.pop(node_id, None)
        if entry is None:
            return False
        entry.live = False
        if entry.relayed_by is not None:
            self._group_discard(node_id, entry.relayed_by)
        self._version += 1
        return True  # heap records orphaned; discarded lazily on surfacing

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

        Each live direct entry has exactly one heap record whose key is a
        *lower bound* on ``last_refresh`` (freshness bumps do not touch the
        heap).  When a stale-keyed record surfaces but the entry was
        refreshed since, it is re-keyed at the current ``last_refresh`` and
        pushed back — at most once per timeout window per entry, so a quiet
        period costs O(live entries / timeout periods), not O(refreshes).
        """
        heap = self._direct_heap
        entries = self._entries
        dead: List[Tuple[int, str]] = []
        while heap:
            key, stamp, nid = heap[0]
            entry = entries.get(nid)
            if entry is None or entry.stamp != stamp or entry.relayed_by is not None:
                heapq.heappop(heap)  # orphaned by remove/reclass
                continue
            if not now - key > timeout:
                break  # key <= last_refresh, so the rest is fresh too
            fresh = entry.last_refresh
            if not now - fresh > timeout:
                # Refreshed since the record was pushed: re-key, move on.
                heapq.heappop(heap)
                self._stamp += 1
                entry.stamp = self._stamp
                heapq.heappush(heap, (fresh, entry.stamp, nid))
                continue
            heapq.heappop(heap)
            if incarnations is not None:
                incarnations[nid] = entry.record.incarnation
            del entries[nid]
            entry.live = False
            dead.append((entry.order, nid))
        if dead:
            self._version += 1
            dead.sort()
        return [nid for _order, nid in dead]

    def purge_relayed_by(self, leader: str) -> List[str]:
        """Drop every entry vouched for by ``leader`` (leader died).

        Implements the timeout-protocol rule that "membership information
        relayed by a group leader has the same life time as the leader
        itself".
        """
        group = self._relayed_groups.pop(leader, None)
        if not group:
            return []
        entries = self._entries
        # Reported in insertion-rank order (trace determinism).
        dead = sorted(group, key=lambda nid: entries[nid].order)
        for nid in dead:
            entries.pop(nid).live = False
        self._version += 1
        return dead

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

        A whole group is provably fresh when its relayer vouched within the
        window (``effective >= vouch time``), so the steady-state cost is
        one comparison per relayer.  A group whose vouch lapsed is scanned
        entry-by-entry — that only happens while a relayer is dying, and
        ``purge_relayed_by`` usually empties the group before this backstop
        ever sees it.
        """
        entries = self._entries
        vouch = self._vouch_times
        neg_inf = float("-inf")
        doomed: List[Tuple[int, str, _Entry]] = []
        for relayer, group in self._relayed_groups.items():
            vouched = vouch.get(relayer, neg_inf)
            if now - vouched <= timeout:
                continue  # fresh vouch covers every entry in the group
            for nid in group:
                if nid == self.owner:
                    continue  # the owner never expires
                entry = entries[nid]
                effective = entry.last_refresh
                if effective < vouched:
                    effective = vouched
                if now - effective > timeout:
                    doomed.append((entry.order, nid, entry))
        if not doomed:
            return []
        # Reported in insertion-rank order (orders are unique, so the
        # sort never compares entries).
        doomed.sort(key=lambda item: item[0])
        dead: List[str] = []
        for _order, nid, entry in doomed:
            if incarnations is not None:
                incarnations[nid] = entry.record.incarnation
            del entries[nid]
            entry.live = False
            self._group_discard(nid, entry.relayed_by)
            dead.append(nid)
        self._version += 1
        return dead

    def vouch(self, relayer: str, now: float) -> None:
        """Record that ``relayer`` is alive, keeping its relayed entries fresh."""
        self._vouch_times[relayer] = now

    def reattribute(self, old_relayer: str, new_relayer: str) -> int:
        """Move vouching responsibility from ``old_relayer`` to ``new_relayer``.

        Called on leader failover: the new leader inherits the old one's
        vouched entries so they survive until it re-syncs.  Returns the
        number of entries moved.
        """
        group = self._relayed_groups.pop(old_relayer, None)
        if not group:
            return 0
        entries = self._entries
        for nid in group:
            entries[nid].relayed_by = new_relayer
        dst = self._relayed_groups.get(new_relayer)
        if dst is None:
            self._relayed_groups[new_relayer] = group
        else:
            dst.update(group)
        moved = len(group)
        if old_relayer in self._vouch_times:
            prev = self._vouch_times[old_relayer]
            self._vouch_times[new_relayer] = max(prev, self._vouch_times.get(new_relayer, prev))
        return moved

    def relayed_entries(self, relayer: str) -> List[str]:
        """Node ids currently vouched for by ``relayer`` (sorted)."""
        return sorted(self._relayed_groups.get(relayer, ()))

    def clear(self) -> None:
        for entry in self._entries.values():
            entry.live = False
        self._entries.clear()
        self._vouch_times.clear()
        self._direct_heap.clear()
        self._relayed_groups.clear()
        self._version += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, node_id: str) -> bool:
        return node_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, node_id: str) -> Optional[NodeRecord]:
        entry = self._entries.get(node_id)
        return entry.record if entry else None

    def last_refresh(self, node_id: str) -> Optional[float]:
        entry = self._entries.get(node_id)
        return entry.last_refresh if entry else None

    def relayed_by(self, node_id: str) -> Optional[str]:
        entry = self._entries.get(node_id)
        return entry.relayed_by if entry else None

    def entry_view(self, node_id: str) -> Optional[_Entry]:
        """The live entry for ``node_id``, or None — single-lookup peek.

        Serves the informer's absorb hot path, which needs the stored
        record *and* its relayer for every op of every update message.
        Callers may retain the reference as a cache, but must check
        ``entry.live`` before every use and re-probe when it is False —
        removal is the only event that invalidates a cached entry (a
        re-added node always gets a fresh entry object).
        """
        return self._entries.get(node_id)

    def members(self) -> Tuple[str, ...]:
        """All known node ids, sorted (deterministic iteration).

        Served from a cache validated against :attr:`version`; rebuilding
        only happens after a structural change, not per heartbeat tick.
        """
        ver, cached = self._members_cache
        if ver != self._version:
            cached = tuple(sorted(self._entries))
            self._members_cache = (self._version, cached)
        return cached

    def records(self) -> Tuple[NodeRecord, ...]:
        """All records in ``members()`` order, cached like :meth:`members`."""
        ver, cached = self._records_cache
        if ver != self._version:
            entries = self._entries
            cached = tuple(entries[nid].record for nid in self.members())
            self._records_cache = (self._version, cached)
        return cached

    def snapshot(self) -> Dict[str, NodeRecord]:
        """Copy of the table, for bootstrap transfers and assertions.

        The returned dict is the caller's to mutate; it is materialised
        from a version-validated cache.
        """
        ver, cached = self._snapshot_cache
        if ver != self._version:
            cached = {nid: e.record for nid, e in self._entries.items()}
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
