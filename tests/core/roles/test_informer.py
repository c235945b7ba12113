"""Informer role in isolation: sync client/server, tombstone machinery.

The sync protocol's wire face lives in the Receiver (``on_unicast``) but
its behavior — snapshots, merging, rate limiting, death certificates —
is the Informer's.  These tests drive both ends over the fake runtime.
"""

from repro.cluster.directory import NodeRecord
from repro.core.updates import UpdateOp
from repro.net.packet import Packet


def sync_req(src, snapshot):
    return Packet(src=src, kind="sync_req", payload={"snapshot": snapshot}, size=100, dst="n0")


def sync_resp(src, snapshot, seqs=None):
    payload = {"snapshot": snapshot, "seqs": seqs or {}}
    return Packet(src=src, kind="sync_resp", payload=payload, size=100, dst="n0")


def update_publishes(daemon):
    return [p for (_, _, kind, p, _) in daemon.runtime.published if kind == "update"]


class TestSyncClient:
    def test_request_carries_directory_minus_the_peer(self, daemon):
        daemon.add_peer("p1")
        assert daemon.ctx.informer.maybe_sync("p1") is True
        assert "p1" in daemon.ctx.pending_syncs
        (dst, kind, payload, _, port) = daemon.runtime.sent[-1]
        assert (dst, kind, port) == ("p1", "sync_req", "hmember")
        ids = {r.node_id for r in payload["snapshot"]}
        # Our own record travels; the peer's does not (it knows itself).
        assert daemon.node.node_id in ids
        assert "p1" not in ids

    def test_rate_limit_swallows_the_resend_but_keeps_it_pending(self, daemon):
        daemon.ctx.informer.maybe_sync("p1")
        sent_before = len(daemon.runtime.sent)
        assert daemon.ctx.informer.maybe_sync("p1") is False
        assert len(daemon.runtime.sent) == sent_before
        # The tracker keeps retrying until a response lands.
        assert "p1" in daemon.ctx.pending_syncs
        # After the interval the retry goes through.
        daemon.runtime.advance(daemon.config.min_sync_interval)
        assert daemon.ctx.informer.maybe_sync("p1") is True

    def test_stopped_node_never_syncs(self, daemon):
        daemon.node.running = False
        assert daemon.ctx.informer.maybe_sync("p1") is False
        assert daemon.runtime.sent == []
        assert daemon.ctx.pending_syncs == set()


class TestSyncServer:
    def test_request_is_answered_with_snapshot_and_seqs(self, daemon):
        far = NodeRecord("far1", 2)
        daemon.ctx.receiver.on_unicast(sync_req("p1", [far]))
        # The request's payload was merged (bidirectional exchange)...
        assert "far1" in daemon.directory
        assert daemon.node.member_up == ["far1"]
        (dst, kind, payload, _, port) = daemon.runtime.sent[-1]
        assert (dst, kind, port) == ("p1", "sync_resp", "hmember")
        ids = {r.node_id for r in payload["snapshot"]}
        assert daemon.node.node_id in ids and "far1" in ids and "p1" not in ids
        # Stream positions let the client mark itself caught-up.
        assert set(payload["seqs"]) == {0}

    def test_stopped_node_does_not_serve(self, daemon):
        daemon.node.running = False
        daemon.ctx.receiver.on_unicast(sync_req("p1", []))
        assert daemon.runtime.sent == []

    def test_response_clears_pending_and_prunes_dead_vouchees(self, daemon):
        # "leader" vouched for old1; its authoritative snapshot no longer
        # lists old1, so the entry must go (we missed the remove-update).
        daemon.ctx.pending_syncs.add("leader")
        daemon.directory.upsert(NodeRecord("old1", 1), 0.0, relayed_by="leader")
        fresh = NodeRecord("new1", 1)
        daemon.ctx.receiver.on_unicast(sync_resp("leader", [fresh]))
        assert daemon.ctx.pending_syncs == set()
        assert "old1" not in daemon.directory
        assert ("old1", "sync_prune") in daemon.node.member_down
        assert "new1" in daemon.directory


class TestSyncPruneRelay:
    """What a sync response prunes, a relay point tells its group."""

    def prune(self, daemon):
        daemon.ctx.pending_syncs.add("up")
        daemon.directory.upsert(NodeRecord("old1", 4), 0.0, relayed_by="up")
        daemon.ctx.receiver.on_unicast(sync_resp("up", []))
        assert "old1" not in daemon.directory
        assert ("old1", "sync_prune") in daemon.node.member_down
        return [(op.op, op.node_id, op.incarnation)
                for m in update_publishes(daemon) for op in m.ops]

    def test_a_leader_originates_the_removal_with_the_buried_incarnation(self, daemon):
        daemon.ctx.groups[0].i_am_leader = True
        daemon.add_peer("up", level=1)
        sent = self.prune(daemon)
        # One update, multicast on both channels the leader joins.
        assert sent == [("remove", "old1", 4)] * 2
        assert daemon.ctx.tombstones["old1"][0] == 4

    def test_a_plain_member_prunes_silently(self, daemon):
        daemon.add_peer("up", is_leader=True)
        assert self.prune(daemon) == []


class TestTombstones:
    def test_certificate_refuses_stale_incarnations(self, daemon):
        daemon.ctx.informer.bury("ghost", 3)
        absorbed = daemon.ctx.informer.absorb_record(
            NodeRecord("ghost", 2), via="p1", now=daemon.runtime.now
        )
        assert absorbed is False
        assert "ghost" not in daemon.directory

    def test_refused_record_triggers_refutation_and_repull(self, daemon):
        daemon.ctx.informer.bury("ghost", 3)
        daemon.ctx.informer.absorb_record(
            NodeRecord("ghost", 3), via="p1", now=daemon.runtime.now
        )
        # Anti-entropy: the removal is pushed back at whoever is stale...
        msgs = update_publishes(daemon)
        assert any(
            op.op == "remove" and op.node_id == "ghost" and op.incarnation == 3
            for m in msgs
            for op in m.ops
        )
        # ...and a post-quarantine re-pull from the source is scheduled.
        (backstop,) = daemon.runtime.oneshots
        assert backstop.args == ("p1",)
        daemon.runtime.advance(
            daemon.config.tombstone_quarantine + daemon.config.heartbeat_period
        )
        kinds = [(dst, kind) for (dst, kind, _, _, _) in daemon.runtime.sent]
        assert ("p1", "sync_req") in kinds

    def test_refutation_storm_is_rate_limited(self, daemon):
        daemon.ctx.informer.bury("ghost", 3)
        now = daemon.runtime.now
        daemon.ctx.informer.absorb_record(NodeRecord("ghost", 3), via="p1", now=now)
        published_before = len(update_publishes(daemon))
        daemon.ctx.informer.absorb_record(NodeRecord("ghost", 3), via="p2", now=now)
        assert len(update_publishes(daemon)) == published_before

    def test_higher_incarnation_beats_the_certificate(self, daemon):
        # A genuinely restarted node announces a higher incarnation; the
        # certificate must not block its return.
        daemon.ctx.informer.bury("ghost", 3)
        absorbed = daemon.ctx.informer.absorb_record(
            NodeRecord("ghost", 4), via="p1", now=daemon.runtime.now
        )
        assert absorbed is True
        assert "ghost" in daemon.directory
        assert daemon.node.member_up == ["ghost"]

    def test_certificates_expire_after_quarantine(self, daemon):
        daemon.ctx.informer.bury("ghost", 3)
        daemon.runtime.advance(daemon.config.tombstone_quarantine + 0.1)
        assert not daemon.ctx.informer.tombstoned("ghost", 3, daemon.runtime.now)
        assert "ghost" not in daemon.ctx.tombstones

    def test_certificates_of_ids_that_never_return_lapse(self, daemon):
        # A thousand ids buried one every 1/32 s and never heard again
        # (the live-garbage flood's shape).  The tracker tick drops every
        # certificate its quarantine has passed, so the map holds exactly
        # the ids buried in the last quarantine, and nothing after it.
        ctx, runtime = daemon.ctx, daemon.runtime
        quarantine = daemon.config.tombstone_quarantine
        step, period = 1 / 32, daemon.config.heartbeat_period
        buried = []
        for i in range(1000):
            runtime.time = i * step
            ctx.informer.bury(f"gone{i}", 1)
            buried.append((f"gone{i}", runtime.time))
            if i % round(period / step) == 0:
                ctx.tracker.check_tick()
                recent = {nid for nid, t in buried if runtime.time - t <= quarantine}
                assert set(ctx.tombstones) == recent, i
        assert len(ctx.tombstones) <= quarantine / step + period / step
        runtime.time += quarantine + period
        ctx.tracker.check_tick()
        assert ctx.tombstones == {}


class TestRateLimiterMaps:
    def test_maps_stay_within_twice_the_ids_of_the_last_interval(self, daemon):
        # A thousand distinct far-away ids, one every 1/32 s: each is
        # synced with once and refuted once.  Entries an interval old
        # limit nothing, and both maps drop them once they have doubled.
        informer, ctx = daemon.ctx.informer, daemon.ctx
        interval = daemon.config.min_sync_interval
        step = 1 / 32
        seen = []
        for i in range(1000):
            now = daemon.runtime.time = i * step
            nid = f"far{i}"
            assert informer.maybe_sync(nid)
            informer.bury(nid, 1)
            assert not informer.absorb_record(NodeRecord(nid, 1), via="p1", now=now)
            seen.append(now)
            recent = sum(1 for t in seen if now - t < interval)
            assert len(informer.last_sync) <= 2 * recent, i
            assert len(ctx.tombstone_refutes) <= 2 * recent, i
        assert len(informer.last_sync) < 2 * interval / step < 1000
        # The limiter still limits: a second request inside the interval
        # is swallowed, and a refutation of a recent id is not repeated.
        assert not informer.maybe_sync("far999")
        published = len(update_publishes(daemon))
        informer.absorb_record(NodeRecord("far999", 1), via="p2", now=daemon.runtime.time)
        assert len(update_publishes(daemon)) == published


class TestApplyOpsRuns:
    def count_inserts(self, daemon, monkeypatch):
        calls = []
        insert_new = daemon.directory.insert_new

        def counted(records, now, relayed_by=None):
            calls.append([r.node_id for r in records])
            return insert_new(records, now, relayed_by)

        monkeypatch.setattr(daemon.directory, "insert_new", counted)
        return calls

    def test_first_sights_are_written_once_per_run(self, daemon, monkeypatch):
        calls = self.count_inserts(daemon, monkeypatch)
        daemon.add_peer("p1")
        known = daemon.add_peer("p2")
        ops = [UpdateOp("add", nid, 1, NodeRecord(nid, 1)) for nid in ("a", "b")]
        ops.append(UpdateOp("add", "p2", 1, known))  # held: a freshness bump
        ops += [UpdateOp("add", nid, 1, NodeRecord(nid, 1)) for nid in ("c", "d")]
        ops.append(UpdateOp("remove", "zz", 1))  # not held: ignored, but ends the run
        ops.append(UpdateOp("add", "e", 1, NodeRecord("e", 1)))
        daemon.ctx.informer.apply_ops(ops, via="p1")
        assert calls == [["a", "b", "c", "d"], ["e"]]
        assert list(daemon.directory.snapshot())[-5:] == ["a", "b", "c", "d", "e"]
        # One anchor for the run: no leader in sight, so the sender vouches.
        assert {daemon.directory.relayed_by(nid) for nid in "abcde"} == {"p1"}

    def test_a_run_naming_an_id_twice_merges_the_second(self, daemon, monkeypatch):
        calls = self.count_inserts(daemon, monkeypatch)
        daemon.add_peer("p1")
        first, second = NodeRecord("a", 1), NodeRecord("a", 2)
        ops = [
            UpdateOp("add", "a", 1, first),
            UpdateOp("add", "b", 1, NodeRecord("b", 1)),
            UpdateOp("add", "a", 2, second),
            UpdateOp("add", "c", 1, NodeRecord("c", 1)),
        ]
        daemon.ctx.informer.apply_ops(ops, via="p1")
        # The run stops at the repeat, which is merged, then goes on.
        assert calls == [["a", "b", "a", "c"], ["c"]]
        assert daemon.directory.get("a") is second
        assert list(daemon.directory.snapshot())[-3:] == ["a", "b", "c"]


class TestSelfDefense:
    def test_rumor_of_own_death_is_refuted(self, daemon):
        me = daemon.node.node_id
        daemon.ctx.informer.apply_ops(
            [UpdateOp("remove", me, daemon.node.incarnation)], via="p1"
        )
        assert daemon.node.refutations == 1
        record = daemon.directory.get(me)
        assert record is not None and record.incarnation == 2
        # The higher incarnation is announced so the rumor dies out.
        assert any(
            op.op == "add" and op.node_id == me and op.incarnation == 2
            for m in update_publishes(daemon)
            for op in m.ops
        )

    def test_stale_death_rumor_is_ignored(self, daemon):
        daemon.node.incarnation = 5
        daemon.ctx.informer.apply_ops([UpdateOp("remove", daemon.node.node_id, 2)], via="p1")
        assert daemon.node.refutations == 0


class TestLeaderRefutation:
    """A leader answers a member's death rumor only while it hears the member."""

    def rumor(self, daemon, heard_periods_ago):
        period = daemon.config.heartbeat_period
        daemon.runtime.time = 10.0
        daemon.ctx.groups[0].i_am_leader = True
        daemon.add_peer("m1", last_heard=10.0 - heard_periods_ago * period)
        daemon.ctx.informer.apply_ops([UpdateOp("remove", "m1", 1)], via="p1")
        return [
            op
            for m in update_publishes(daemon)
            for op in m.ops
            if op.node_id == "m1"
        ]

    def test_member_heard_a_period_ago_is_refuted(self, daemon):
        ops = self.rumor(daemon, heard_periods_ago=1)
        assert [(op.op, op.incarnation) for op in ops] == [("add", 1)]
        assert "m1" in daemon.directory

    def test_member_quiet_for_three_periods_is_neither_refuted_nor_removed(self, daemon):
        ops = self.rumor(daemon, heard_periods_ago=3)
        assert ops == []
        # Our own detector still decides: the entry and the peer stay.
        assert "m1" in daemon.directory
        assert "m1" in daemon.ctx.groups[0].peers
        assert daemon.node.member_down == []
