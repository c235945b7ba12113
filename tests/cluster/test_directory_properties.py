"""Property-based tests for the yellow-page directory (hypothesis)."""

import heapq
from dataclasses import dataclass

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import Directory, NodeRecord, parse_partitions

node_ids = st.sampled_from([f"n{i}" for i in range(6)])
incarnations = st.integers(min_value=0, max_value=5)


@st.composite
def records(draw):
    nid = draw(node_ids)
    inc = draw(incarnations)
    nparts = draw(st.integers(min_value=0, max_value=4))
    services = {"svc": frozenset(range(nparts))} if nparts else {}
    attrs = {"k": draw(st.sampled_from(["a", "b", "c"]))}
    return NodeRecord(nid, incarnation=inc, services=services, attrs=attrs)


@st.composite
def operations(draw):
    """A random op: (kind, record-or-id, time)."""
    kind = draw(st.sampled_from(["upsert", "remove", "refresh"]))
    rec = draw(records())
    t = draw(st.floats(min_value=0, max_value=100, allow_nan=False))
    relayer = draw(st.one_of(st.none(), st.sampled_from(["L1", "L2"])))
    return (kind, rec, t, relayer)


class TestDirectoryProperties:
    @given(st.lists(operations(), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_incarnation_never_regresses(self, ops):
        """After any op sequence, each entry holds the max incarnation ever
        successfully upserted since its last removal."""
        d = Directory("owner")
        best = {}
        for kind, rec, t, relayer in ops:
            if kind == "upsert":
                d.upsert(rec, t, relayed_by=relayer)
                best[rec.node_id] = max(best.get(rec.node_id, -1), rec.incarnation)
            elif kind == "remove":
                d.remove(rec.node_id)
                best.pop(rec.node_id, None)
            else:
                d.refresh(rec.node_id, t, relayed_by=relayer)
        for nid, inc in best.items():
            assert d.get(nid) is not None
            assert d.get(nid).incarnation == inc

    @given(st.lists(records(), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_upsert_idempotent(self, recs):
        """Replaying the same sequence twice gives the same directory."""
        d1, d2 = Directory("o"), Directory("o")
        for r in recs:
            d1.upsert(r, 1.0)
            d2.upsert(r, 1.0)
            d2.upsert(r, 1.0)  # duplicate delivery (overlapping groups)
        assert d1.snapshot() == d2.snapshot()

    @given(st.lists(records(), max_size=20), st.floats(min_value=0, max_value=50))
    @settings(max_examples=100, deadline=None)
    def test_members_sorted_and_consistent(self, recs, now):
        d = Directory("o")
        for r in recs:
            d.upsert(r, now)
        members = list(d.members())
        assert members == sorted(members)
        assert len(members) == len(d)
        for nid in members:
            assert nid in d

    @given(st.lists(records(), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_purge_relayed_by_removes_exactly_attribution(self, recs):
        d = Directory("o")
        for i, r in enumerate(recs):
            d.upsert(r, 0.0, relayed_by="L1" if i % 2 else "L2")
        attributed = set(d.relayed_entries("L1"))
        purged = set(d.purge_relayed_by("L1"))
        assert purged == attributed
        assert not d.relayed_entries("L1")

    @given(
        st.lists(records(), max_size=15),
        st.floats(min_value=1.0, max_value=10.0),
        st.floats(min_value=11.0, max_value=50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_purge_stale_only_removes_expired(self, recs, timeout, now):
        d = Directory("o")
        for i, r in enumerate(recs):
            d.upsert(r, float(i))  # staggered refresh times
        dead = d.purge_stale(now, timeout)
        for nid in dead:
            assert nid not in d
        for nid in d.members():
            assert nid == "o" or now - d.last_refresh(nid) <= timeout


@dataclass
class _RefEntry:
    record: NodeRecord
    last_refresh: float
    relayed_by: object  # None = heard directly
    order: int  # insertion rank
    stamp: int = 0  # token of the entry's live heap record


class ReferenceDirectory:
    """One object per entry: insertion rank, per-relayer sets, heap stamps.

    The directory's storage before it became a flat table, kept as the
    obvious model the table must agree with on every observable.
    """

    def __init__(self, owner):
        self.owner = owner
        self.entries = {}
        self.groups = {}  # relayer -> {node id: None}, insertion-ordered
        self.vouches = {}
        self.heap = []
        self.stamp = 0
        self.order = 0
        self.version = 0

    def _push(self, nid, entry, key):
        if nid != self.owner:
            self.stamp += 1
            entry.stamp = self.stamp
            heapq.heappush(self.heap, (key, entry.stamp, nid))

    def _move(self, nid, old, new):
        if old is not None:
            group = self.groups[old]
            del group[nid]
            if not group:
                del self.groups[old]
        if new is not None:
            self.groups.setdefault(new, {})[nid] = None

    def insert_new(self, record, now, relayed_by=None):
        self.order += 1
        entry = _RefEntry(record, now, relayed_by, self.order)
        self.entries[record.node_id] = entry
        self._move(record.node_id, None, relayed_by)
        self.version += 1
        if relayed_by is None:
            self._push(record.node_id, entry, now)

    def upsert(self, record, now, relayed_by=None):
        nid = record.node_id
        cur = self.entries.get(nid)
        if cur is None:
            self.insert_new(record, now, relayed_by)
            return True
        if cur.record.incarnation > record.incarnation:
            return False
        identical = cur.record is record
        changed = not identical and cur.record != record
        old = cur.relayed_by
        cur.record, cur.last_refresh, cur.relayed_by = record, now, relayed_by
        if old != relayed_by:
            self._move(nid, old, relayed_by)
        if identical:
            if old != relayed_by and relayed_by is None:
                self._push(nid, cur, now)
            return False
        if changed or old != relayed_by:
            self.version += 1
        if relayed_by is None:
            self._push(nid, cur, now)
        return changed

    def refresh(self, nid, now, relayed_by=None):
        cur = self.entries.get(nid)
        if cur is None:
            return False
        cur.last_refresh = now
        old = cur.relayed_by
        if old != relayed_by:
            cur.relayed_by = relayed_by
            self._move(nid, old, relayed_by)
            if relayed_by is None:
                self._push(nid, cur, now)
        return True

    def remove(self, nid):
        cur = self.entries.pop(nid, None)
        if cur is None:
            return False
        self._move(nid, cur.relayed_by, None)
        self.version += 1
        return True

    def purge_stale(self, now, timeout, incarnations=None):
        dead = []
        while self.heap:
            key, stamp, nid = self.heap[0]
            entry = self.entries.get(nid)
            if entry is None or entry.stamp != stamp or entry.relayed_by is not None:
                heapq.heappop(self.heap)
                continue
            if not now - key > timeout:
                break
            heapq.heappop(self.heap)
            if not now - entry.last_refresh > timeout:
                self._push(nid, entry, entry.last_refresh)
                continue
            if incarnations is not None:
                incarnations[nid] = entry.record.incarnation
            del self.entries[nid]
            dead.append((entry.order, nid))
        if dead:
            self.version += 1
        return [nid for _order, nid in sorted(dead)]

    def purge_relayed_by(self, leader):
        group = self.groups.pop(leader, None)
        if not group:
            return []
        dead = sorted(group, key=lambda nid: self.entries[nid].order)
        for nid in dead:
            del self.entries[nid]
        self.version += 1
        return dead

    def purge_stale_relayed(self, now, timeout, incarnations=None):
        doomed = []
        for relayer, group in self.groups.items():
            vouched = self.vouches.get(relayer, float("-inf"))
            if now - vouched <= timeout:
                continue
            for nid in group:
                entry = self.entries[nid]
                if nid != self.owner and now - max(entry.last_refresh, vouched) > timeout:
                    doomed.append((entry.order, nid))
        doomed.sort()
        for _order, nid in doomed:
            entry = self.entries.pop(nid)
            if incarnations is not None:
                incarnations[nid] = entry.record.incarnation
            self._move(nid, entry.relayed_by, None)
        if doomed:
            self.version += 1
        return [nid for _order, nid in doomed]

    def vouch(self, relayer, now):
        self.vouches[relayer] = now

    def reattribute(self, old, new):
        group = self.groups.pop(old, None)
        if not group:
            return 0
        for nid in group:
            self.entries[nid].relayed_by = new
        self.groups.setdefault(new, {}).update(group)
        if old in self.vouches:
            prev = self.vouches[old]
            self.vouches[new] = max(prev, self.vouches.get(new, prev))
        return len(group)

    def relayed_entries(self, relayer):
        return sorted(self.groups.get(relayer, ()))

    def clear(self):
        self.entries.clear()
        self.groups.clear()
        self.vouches.clear()
        self.heap.clear()
        self.version += 1

    def __contains__(self, nid):
        return nid in self.entries

    def __len__(self):
        return len(self.entries)

    def get(self, nid):
        entry = self.entries.get(nid)
        return entry.record if entry else None

    def last_refresh(self, nid):
        entry = self.entries.get(nid)
        return entry.last_refresh if entry else None

    def relayed_by(self, nid):
        entry = self.entries.get(nid)
        return entry.relayed_by if entry else None

    def members(self):
        return tuple(sorted(self.entries))

    def records(self):
        return tuple(self.entries[nid].record for nid in self.members())

    def snapshot(self):
        return {nid: entry.record for nid, entry in self.entries.items()}


OWNER = "o"
MODEL_IDS = [OWNER, "n0", "n1", "n2", "n3"]
# Every relayer the protocol produces: leaders, a member that relays its
# subtree, and the owner itself (a leader attributes to itself).
MODEL_RELAYERS = ["L1", "L2", "n0", OWNER]
# Every record comes in two equal-content objects, so upserts hit both
# the identity and the content-equality branches.
TWINS = [
    tuple(NodeRecord(nid, incarnation=inc, attrs={"k": val}) for _twin in range(2))
    for nid in MODEL_IDS
    for inc in range(3)
    for val in ("a", "b")
]
RECORD_POOL = [record for pair in TWINS for record in pair]
TWIN_OF = {id(a): b for a, b in TWINS} | {id(b): a for a, b in TWINS}
model_ids = st.sampled_from(MODEL_IDS + ["absent"])
model_relayers = st.sampled_from(MODEL_RELAYERS)
maybe_relayer = st.one_of(st.none(), model_relayers)
# Not monotone: the model's heap keys must match even when time jumps back.
times = st.sampled_from([0.0, 1.0, 2.0, 3.5, 5.0, 8.0, 13.0])
timeouts = st.sampled_from([1.0, 2.5, 5.0])


def model_ops():
    record = st.sampled_from(RECORD_POOL)
    purge = st.sampled_from(["purge_stale", "purge_stale_relayed"])
    restate = st.sampled_from(["upsert_stored", "upsert_twin"])
    return st.one_of(
        st.tuples(st.just("upsert"), record, times, maybe_relayer),
        st.tuples(restate, model_ids, times, maybe_relayer),
        st.tuples(st.just("insert_new"), record, times, maybe_relayer),
        st.tuples(st.just("refresh"), model_ids, times, maybe_relayer),
        st.tuples(st.just("remove"), model_ids),
        st.tuples(st.just("vouch"), model_relayers, times),
        st.tuples(purge, times, timeouts, st.booleans()),
        st.tuples(st.just("purge_relayed_by"), model_relayers),
        st.tuples(st.just("reattribute"), model_relayers, model_relayers),
    )


def run_op(target, op):
    """Apply ``op``; returns everything the call hands back."""
    kind, args = op[0], op[1:]
    if kind in ("purge_stale", "purge_stale_relayed"):
        now, timeout, with_incarnations = args
        incs = {} if with_incarnations else None
        dead = getattr(target, kind)(now, timeout, incarnations=incs)
        return dead, None if incs is None else list(incs.items())
    if kind in ("upsert_stored", "upsert_twin"):
        nid, now, relayer = args
        stored = target.get(nid)
        if stored is None:
            return None
        record = stored if kind == "upsert_stored" else TWIN_OF[id(stored)]
        return target.upsert(record, now, relayed_by=relayer)
    if kind == "insert_new":
        record, now, relayer = args
        if record.node_id in target:
            return "present"
        return target.insert_new(record, now, relayed_by=relayer)
    if kind in ("upsert", "refresh"):
        key, now, relayer = args
        return getattr(target, kind)(key, now, relayed_by=relayer)
    return getattr(target, kind)(*args)


def observe(target):
    """Every read-only observable; ``get`` compared by identity.

    The cached views may hold an equal twin of the stored record (a
    content-equal upsert does not move the version), so they compare
    by content.
    """
    return (
        len(target),
        target.members(),
        target.records(),
        list(target.snapshot().items()),
        [
            (nid in target, id(target.get(nid)), target.last_refresh(nid), target.relayed_by(nid))
            for nid in MODEL_IDS + ["absent"]
        ],
        [target.relayed_entries(r) for r in MODEL_RELAYERS],
    )


class TestFlatTableMatchesEntryModel:
    # One clear() per run, at a drawn position: as an op it would empty
    # the table too often for the few-op histories most defects need.
    @given(st.lists(model_ops(), min_size=20, max_size=60), st.integers(0, 60))
    @settings(derandomize=True, deadline=None, max_examples=400)
    # A content-equal upsert back in time re-keys the heap lower: rare at
    # random, and the one case where skipping that push would show.
    @example(
        [
            ("upsert", TWINS[6][0], 8.0, None),
            ("upsert_twin", TWINS[6][0].node_id, 1.0, None),
            ("purge_stale", 5.0, 2.5, True),
        ],
        60,
    )
    def test_every_return_and_observable_agrees(self, ops, clear_at):
        table, model = Directory(OWNER), ReferenceDirectory(OWNER)
        ops = ops[:clear_at] + [("clear",)] + ops[clear_at:]
        for op in ops:
            v_table, v_model = table.version, model.version
            assert run_op(table, op) == run_op(model, op), op
            # Views are cached on the version, so it must move exactly
            # when the model's does.
            assert table.version - v_table == model.version - v_model, op
            assert observe(table) == observe(model), op

    def test_freed_cells_are_reused(self):
        d = Directory(OWNER)
        for nid in MODEL_IDS:
            d.upsert(NodeRecord(nid), 0.0)
        offset_of, cells = d.cell_access()
        width = len(cells)
        freed = offset_of("n1")
        d.remove("n1")
        assert cells[freed] is None
        d.upsert(NodeRecord("late"), 1.0)
        assert offset_of("late") == freed and len(cells) == width
        d.clear()
        assert len(cells) == width and not any(cells)
        for nid in MODEL_IDS:
            d.upsert(NodeRecord(nid), 2.0)
        assert len(cells) == width  # the cleared cells, reused


class TestPartitionSpecProperties:
    @given(st.sets(st.integers(min_value=0, max_value=200), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_through_spec_string(self, parts):
        spec = ",".join(str(p) for p in sorted(parts))
        assert parse_partitions(spec) == frozenset(parts)

    @given(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_range_expands(self, lo, width):
        assert parse_partitions(f"{lo}-{lo + width}") == frozenset(range(lo, lo + width + 1))
