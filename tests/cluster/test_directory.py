"""Unit tests for the yellow-page directory."""

import pytest

from repro.cluster import Directory, NodeRecord, parse_partitions


def rec(node_id, incarnation=0, services=None, attrs=None):
    return NodeRecord(
        node_id=node_id,
        incarnation=incarnation,
        services={k: frozenset(v) for k, v in (services or {}).items()},
        attrs=attrs or {},
    )


class TestParsePartitions:
    def test_single(self):
        assert parse_partitions("3") == frozenset({3})

    def test_range(self):
        assert parse_partitions("1-3") == frozenset({1, 2, 3})

    def test_mixed(self):
        assert parse_partitions("1-3,5") == frozenset({1, 2, 3, 5})

    def test_whitespace(self):
        assert parse_partitions(" 1 , 2-3 ") == frozenset({1, 2, 3})

    def test_empty(self):
        assert parse_partitions("") == frozenset()

    def test_descending_range_rejected(self):
        with pytest.raises(ValueError):
            parse_partitions("3-1")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_partitions("1,,2")


class TestNodeRecord:
    def test_supersedes_same_or_higher_incarnation(self):
        a0, a1 = rec("a", 0), rec("a", 1)
        assert a1.supersedes(a0)
        assert a0.supersedes(a0)
        assert not a0.supersedes(a1)

    def test_supersedes_different_node_false(self):
        assert not rec("a").supersedes(rec("b"))

    def test_with_service_string_spec(self):
        r = rec("a").with_service("index", "1-3")
        assert r.services["index"] == frozenset({1, 2, 3})

    def test_with_service_iterable(self):
        r = rec("a").with_service("doc", [4, 5])
        assert r.services["doc"] == frozenset({4, 5})

    def test_with_attr_and_without(self):
        r = rec("a").with_attr("Port", "8080")
        assert r.attrs["Port"] == "8080"
        assert "Port" not in r.without_attr("Port").attrs

    def test_functional_updates_do_not_mutate(self):
        r = rec("a")
        r.with_service("x", "1")
        assert r.services == {}


class TestUpsert:
    def test_insert_reports_change(self):
        d = Directory("me")
        assert d.upsert(rec("a"), now=1.0)
        assert "a" in d and len(d) == 1

    def test_identical_upsert_reports_no_change_but_refreshes(self):
        d = Directory("me")
        d.upsert(rec("a"), now=1.0)
        assert not d.upsert(rec("a"), now=5.0)
        assert d.last_refresh("a") == 5.0

    def test_lower_incarnation_loses(self):
        d = Directory("me")
        d.upsert(rec("a", incarnation=2), now=1.0)
        assert not d.upsert(rec("a", incarnation=1), now=2.0)
        assert d.get("a").incarnation == 2
        assert d.last_refresh("a") == 1.0  # stale record must not refresh

    def test_higher_incarnation_wins(self):
        d = Directory("me")
        d.upsert(rec("a", 0, services={"x": {1}}), now=1.0)
        assert d.upsert(rec("a", 1), now=2.0)
        assert d.get("a").incarnation == 1
        assert d.get("a").services == {}

    def test_same_incarnation_payload_change_is_visible(self):
        d = Directory("me")
        d.upsert(rec("a", 0), now=1.0)
        assert d.upsert(rec("a", 0, attrs={"load": "5"}), now=2.0)

    def test_upsert_idempotent(self):
        d = Directory("me")
        r = rec("a", 1, services={"x": {1}})
        d.upsert(r, now=1.0)
        d.upsert(r, now=1.0)
        assert len(d) == 1


class TestRemoveAndPurge:
    def test_remove(self):
        d = Directory("me")
        d.upsert(rec("a"), now=0.0)
        assert d.remove("a")
        assert not d.remove("a")
        assert "a" not in d

    def test_purge_stale_direct_entries(self):
        d = Directory("me")
        d.upsert(rec("a"), now=0.0)
        d.upsert(rec("b"), now=4.0)
        assert d.purge_stale(now=5.0, timeout=3.0) == ["a"]
        assert "b" in d

    def test_purge_never_removes_owner(self):
        d = Directory("me")
        d.upsert(rec("me"), now=0.0)
        assert d.purge_stale(now=100.0, timeout=1.0) == []

    def test_purge_stale_skips_relayed(self):
        d = Directory("me")
        d.upsert(rec("far"), now=0.0, relayed_by="leader")
        assert d.purge_stale(now=100.0, timeout=1.0) == []
        assert d.purge_stale_relayed(now=100.0, timeout=1.0) == ["far"]

    def test_purge_relayed_by_leader(self):
        d = Directory("me")
        d.upsert(rec("x"), now=0.0, relayed_by="L1")
        d.upsert(rec("y"), now=0.0, relayed_by="L1")
        d.upsert(rec("z"), now=0.0, relayed_by="L2")
        d.upsert(rec("w"), now=0.0)
        assert sorted(d.purge_relayed_by("L1")) == ["x", "y"]
        assert list(d.members()) == ["w", "z"]

    def test_refresh_missing_returns_false(self):
        d = Directory("me")
        assert not d.refresh("ghost", now=1.0)

    def test_refresh_updates_relay_provenance(self):
        d = Directory("me")
        d.upsert(rec("a"), now=0.0, relayed_by="L1")
        d.refresh("a", now=1.0, relayed_by="L2")
        assert d.relayed_by("a") == "L2"


class TestLookup:
    def make_dir(self):
        d = Directory("me")
        d.upsert(rec("idx1", services={"index": {1, 2}}), now=0.0)
        d.upsert(rec("idx2", services={"index": {3}}), now=0.0)
        d.upsert(rec("doc1", services={"doc": {1}}), now=0.0)
        d.upsert(rec("both", services={"index": {4}, "doc": {2, 3}}), now=0.0)
        return d

    def test_exact_service(self):
        d = self.make_dir()
        ids = [r.node_id for r in d.lookup_service("index")]
        assert ids == ["both", "idx1", "idx2"]

    def test_partition_range(self):
        d = self.make_dir()
        ids = [r.node_id for r in d.lookup_service("index", "1-2")]
        assert ids == ["idx1"]

    def test_partition_any_overlap(self):
        d = self.make_dir()
        ids = [r.node_id for r in d.lookup_service("index", "2-3")]
        assert ids == ["idx1", "idx2"]

    def test_service_regex(self):
        d = self.make_dir()
        ids = [r.node_id for r in d.lookup_service("index|doc")]
        assert ids == ["both", "doc1", "idx1", "idx2"]

    def test_partition_regex(self):
        d = self.make_dir()
        # regex (not range syntax): partitions matching '[34]'
        ids = [r.node_id for r in d.lookup_service("index", "[34]")]
        assert ids == ["both", "idx2"]

    def test_no_match(self):
        d = self.make_dir()
        assert d.lookup_service("cache") == []
        assert d.lookup_service("index", "99") == []

    def test_fullmatch_semantics(self):
        d = Directory("me")
        d.upsert(rec("n", services={"indexer": {1}}), now=0.0)
        assert d.lookup_service("index") == []  # 'index' must not match 'indexer'
        assert len(d.lookup_service("index.*")) == 1


class TestSnapshots:
    def test_snapshot_is_copy(self):
        d = Directory("me")
        d.upsert(rec("a"), now=0.0)
        snap = d.snapshot()
        d.remove("a")
        assert "a" in snap

    def test_members_sorted(self):
        d = Directory("me")
        for nid in ["c", "a", "b"]:
            d.upsert(rec(nid), now=0.0)
        assert list(d.members()) == ["a", "b", "c"]

    def test_clear(self):
        d = Directory("me")
        d.upsert(rec("a"), now=0.0)
        d.clear()
        assert len(d) == 0


class TestDeadlineHeapEngine:
    """The heap-driven purges against the stated staleness predicates."""

    def test_fast_and_legacy_purges_agree_under_churn(self):
        # Scripted churn: inserts, refreshes, vouches, reclassification,
        # removals.  Expected lists follow from the predicates alone — a
        # direct entry is dead iff now - last_refresh > timeout, a relayed
        # one iff now - max(last_refresh, vouch) > timeout — reported in
        # insertion order.
        d = Directory("me")
        for i in range(10):
            d.upsert(rec(f"n{i}"), now=0.0, relayed_by="L" if i % 2 else None)
        d.refresh("n2", 4.0)
        d.refresh("n3", 4.0, relayed_by="L")
        d.refresh("n5", 4.0, relayed_by=None)  # reclass relayed -> direct
        d.vouch("L", 3.0)
        d.remove("n9")
        # Direct: n0 n4 n6 n8 (fresh at 0), n2 n5 (fresh at 4).
        # Relayed by L (vouched at 3): n1 n7 (fresh at 0), n3 (fresh at 4).
        assert d.purge_stale(6.0, 5.0) == ["n0", "n4", "n6", "n8"]
        assert d.purge_stale_relayed(6.0, 5.0) == []  # 6 - 3 <= 5
        assert list(d.members()) == ["n1", "n2", "n3", "n5", "n7"]
        assert d.purge_stale(9.0, 5.0) == []  # 9 - 4 is not > 5
        assert d.purge_stale_relayed(9.0, 5.0) == ["n1", "n7"]
        assert list(d.members()) == ["n2", "n3", "n5"]
        assert d.purge_stale(12.0, 5.0) == ["n2", "n5"]
        assert d.purge_stale_relayed(12.0, 5.0) == ["n3"]
        assert list(d.members()) == []

    def test_purge_order_matches_insertion_order(self):
        d = Directory("me")
        # Freshness deliberately scrambled vs insertion order.
        d.upsert(rec("c"), now=3.0)
        d.upsert(rec("a"), now=1.0)
        d.upsert(rec("b"), now=2.0)
        assert d.purge_stale(20.0, 5.0) == ["c", "a", "b"]

    def test_refresh_keeps_entry_alive_without_heap_churn(self):
        d = Directory("me")
        d.upsert(rec("x"), now=0.0)
        for t in range(1, 30):
            d.refresh("x", float(t))
            assert d.purge_stale(float(t), 5.0) == []
        # One live heap record per entry: refreshes must not accumulate.
        assert len(d._direct_heap) <= 2

    def test_vouch_keeps_relayed_entry_alive_then_expires(self):
        d = Directory("me")
        d.upsert(rec("x"), now=0.0, relayed_by="L")
        d.vouch("L", 8.0)
        assert d.purge_stale_relayed(10.0, 5.0) == []  # vouch covers it
        assert d.purge_stale_relayed(14.0, 5.0) == ["x"]  # vouch went stale


class TestVersionedViews:
    def test_version_moves_on_structural_changes_only(self):
        d = Directory("me")
        v0 = d.version
        d.upsert(rec("x"), now=0.0)
        v1 = d.version
        assert v1 > v0
        d.refresh("x", 1.0)
        d.vouch("L", 1.0)
        assert d.version == v1  # freshness-only: no bump
        d.remove("x")
        assert d.version > v1

    def test_members_cached_until_version_moves(self):
        d = Directory("me")
        d.upsert(rec("x"), now=0.0)
        first = d.members()
        d.refresh("x", 1.0)
        assert d.members() is first  # same tuple object: cache hit
        d.upsert(rec("y"), now=1.0)
        assert d.members() is not first
        assert list(d.members()) == ["x", "y"]

    def test_snapshot_returns_fresh_copy(self):
        d = Directory("me")
        d.upsert(rec("x"), now=0.0)
        snap = d.snapshot()
        snap["poison"] = rec("poison")
        assert "poison" not in d.snapshot()

    def test_records_reflect_payload_updates(self):
        d = Directory("me")
        d.upsert(rec("x"), now=0.0)
        before = d.records()
        d.upsert(rec("x", attrs={"k": "v"}), now=1.0)
        after = d.records()
        assert before is not after
        assert [r.attrs for r in after] == [{"k": "v"}]

    def test_purge_invalidates_view_caches(self):
        d = Directory("me")
        d.upsert(rec("x"), now=0.0)
        d.upsert(rec("y"), now=10.0)
        assert list(d.members()) == ["x", "y"]
        assert d.purge_stale(14.0, 5.0) == ["x"]  # y refreshed at 10.0
        assert list(d.members()) == ["y"]
