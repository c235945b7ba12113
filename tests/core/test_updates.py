"""Unit tests for the update sub-protocol (seq numbers, piggyback, dedup)."""

from repro.cluster import NodeRecord
from repro.core import UpdateManager, UpdateOp


def add_op(nid, inc=1):
    return UpdateOp("add", nid, inc, NodeRecord(nid, incarnation=inc))


def rm_op(nid, inc=1):
    return UpdateOp("remove", nid, inc)


class TestBuild:
    def test_seq_increments_per_level(self):
        um = UpdateManager("me")
        m1 = um.build(0, [add_op("a")])
        m2 = um.build(0, [add_op("b")])
        m3 = um.build(1, [add_op("c")])
        assert (m1.seq, m2.seq, m3.seq) == (1, 2, 1)

    def test_uid_unique_and_carried_through(self):
        um = UpdateManager("me")
        m1 = um.build(0, [add_op("a")])
        m2 = um.build(0, [add_op("b")])
        assert m1.uid != m2.uid
        relay = um.build(1, m1.ops, uid=m1.uid, origin=m1.origin)
        assert relay.uid == m1.uid
        assert relay.origin == "me"

    def test_piggyback_carries_last_k(self):
        um = UpdateManager("me", piggyback_depth=3)
        msgs = [um.build(0, [add_op(f"n{i}")]) for i in range(5)]
        last = msgs[-1]
        assert [seq for seq, _uid, _origin, _ops in last.piggyback] == [2, 3, 4]

    def test_piggyback_per_level(self):
        um = UpdateManager("me")
        um.build(0, [add_op("a")])
        m = um.build(1, [add_op("b")])
        assert m.piggyback == ()

    def test_current_seq(self):
        um = UpdateManager("me")
        assert um.current_seq(0) == 0
        um.build(0, [add_op("a")])
        assert um.current_seq(0) == 1

    def test_message_size(self):
        um = UpdateManager("me")
        m = um.build(0, [add_op("a"), rm_op("b")])
        # header 28 + add 228 + remove 24
        assert m.size(member_size=228) == 280

    def test_size_includes_piggyback(self):
        um = UpdateManager("me", piggyback_depth=3)
        um.build(0, [add_op("a")])
        m = um.build(0, [add_op("b")])
        assert m.size(228) == 28 + 228 + 228


class TestReceive:
    def test_in_order_stream(self):
        alice, bob = UpdateManager("alice"), UpdateManager("bob")
        for i in range(3):
            msg = alice.build(0, [add_op(f"n{i}")])
            out = bob.receive(msg)
            assert [ops[0].node_id for _uid, _origin, ops in out.apply] == [f"n{i}"]
            assert not out.need_sync

    def test_duplicate_uid_not_reapplied(self):
        alice, bob = UpdateManager("alice"), UpdateManager("bob")
        msg = alice.build(0, [add_op("x")])
        assert len(bob.receive(msg).apply) == 1
        assert bob.receive(msg).apply == []

    def test_relay_through_second_channel_deduped(self):
        alice, carol, bob = UpdateManager("alice"), UpdateManager("carol"), UpdateManager("bob")
        orig = alice.build(0, [add_op("x")])
        assert len(bob.receive(orig).apply) == 1
        relay = carol.build(1, orig.ops, uid=orig.uid, origin=orig.origin)
        assert bob.receive(relay).apply == []

    def test_gap_recovered_from_piggyback(self):
        alice, bob = UpdateManager("alice"), UpdateManager("bob")
        m1 = alice.build(0, [add_op("a")])
        m2 = alice.build(0, [add_op("b")])  # lost
        m3 = alice.build(0, [add_op("c")])
        bob.receive(m1)
        out = bob.receive(m3)
        applied = [ops[0].node_id for _uid, _origin, ops in out.apply]
        assert applied == ["b", "c"]  # recovered op first, in seq order
        assert not out.need_sync

    def test_gap_beyond_piggyback_needs_sync(self):
        alice, bob = UpdateManager("alice", piggyback_depth=3), UpdateManager("bob", piggyback_depth=3)
        msgs = [alice.build(0, [add_op(f"n{i}")]) for i in range(6)]
        bob.receive(msgs[0])
        out = bob.receive(msgs[5])  # lost seqs 2..5: piggyback has 3..5 only
        assert out.need_sync
        # Still recovers what the piggyback carried.
        recovered = {ops[0].node_id for _uid, _origin, ops in out.apply}
        assert recovered == {"n2", "n3", "n4", "n5"}

    def test_exactly_max_loss_recoverable(self):
        # piggyback depth 3 tolerates 3 consecutive losses
        alice, bob = UpdateManager("a"), UpdateManager("b")
        msgs = [alice.build(0, [add_op(f"n{i}")]) for i in range(5)]
        bob.receive(msgs[0])
        out = bob.receive(msgs[4])  # seqs 2,3,4 lost; piggyback = 2,3,4
        assert not out.need_sync
        assert len(out.apply) == 4

    def test_reordered_old_packet_is_noop(self):
        alice, bob = UpdateManager("a"), UpdateManager("b")
        m1 = alice.build(0, [add_op("a")])
        m2 = alice.build(0, [add_op("b")])
        bob.receive(m2)
        out = bob.receive(m1)  # arrives late; uid already seen via piggyback
        assert not out.need_sync
        assert out.apply == []

    def test_streams_per_sender(self):
        a1, a2, bob = UpdateManager("s1"), UpdateManager("s2"), UpdateManager("bob")
        bob.receive(a1.build(0, [add_op("x")]))
        out = bob.receive(a2.build(0, [add_op("y")]))
        assert not out.need_sync  # different sender, own stream

    def test_forget_sender_resets_stream(self):
        alice, bob = UpdateManager("a"), UpdateManager("b")
        for i in range(5):
            bob.receive(alice.build(0, [add_op(f"n{i}")]))
        bob.forget_sender("a")
        fresh = UpdateManager("a")  # restarted daemon, seq restarts at 1
        out = bob.receive(fresh.build(0, [add_op("z")]))
        assert len(out.apply) == 1
        assert not out.need_sync


class TestBehind:
    def test_not_behind_initially_at_zero(self):
        bob = UpdateManager("b")
        assert not bob.behind("a", 0, 0)

    def test_behind_when_never_heard(self):
        bob = UpdateManager("b")
        assert bob.behind("a", 0, 3)

    def test_behind_when_lagging(self):
        alice, bob = UpdateManager("a"), UpdateManager("b")
        bob.receive(alice.build(0, [add_op("x")]))
        assert not bob.behind("a", 0, 1)
        assert bob.behind("a", 0, 2)

    def test_note_synced(self):
        bob = UpdateManager("b")
        bob.note_synced("a", 0, 5)
        assert not bob.behind("a", 0, 5)
        assert bob.behind("a", 0, 6)

    def test_note_synced_never_regresses(self):
        bob = UpdateManager("b")
        bob.note_synced("a", 0, 5)
        bob.note_synced("a", 0, 3)
        assert not bob.behind("a", 0, 5)

    def test_reset(self):
        um = UpdateManager("me")
        um.build(0, [add_op("a")])
        um.note_synced("x", 0, 9)
        um.reset()
        assert um.current_seq(0) == 0
        assert um.behind("x", 0, 1)


class TestReorderingEdges:
    """Edge cases around duplicate-behind packets and the recovery window."""

    def test_duplicate_behind_with_unseen_uid_applies_and_relays(self):
        # With no piggyback a gap cannot recover the lost update, so when
        # the reordered packet finally lands behind the stream position its
        # uid is genuinely new: it must still apply and relay.
        alice = UpdateManager("a", piggyback_depth=0)
        bob = UpdateManager("b", piggyback_depth=0)
        m1 = alice.build(0, [add_op("x")])
        m2 = alice.build(0, [add_op("y")])
        first = bob.receive(m2)  # m1 still in flight
        assert first.need_sync  # hole, nothing to recover from
        late = bob.receive(m1)  # duplicate-behind, uid unseen
        assert [ops[0].node_id for _uid, _origin, ops in late.apply] == ["x"]
        assert late.relay
        assert not late.need_sync

    def test_duplicate_behind_recovers_unseen_piggyback(self):
        """Regression: the duplicate path discarded piggyback recovery.

        A directory sync can jump the stream position over lost seqs
        (``note_synced``); when a delayed packet from before the jump
        finally lands it is duplicate-behind, but its piggyback may
        carry the very updates that were lost.  They used to be thrown
        away; they must be recovered exactly like the forward-gap path.
        """
        alice, bob = UpdateManager("a"), UpdateManager("b")
        m1 = alice.build(0, [add_op("a1")])
        alice.build(0, [add_op("a2")])  # lost
        alice.build(0, [add_op("a3")])  # lost
        m4 = alice.build(0, [add_op("a4")])  # delayed in flight
        bob.receive(m1)
        bob.note_synced("a", 0, 4)  # full sync jumped the stream forward
        out = bob.receive(m4)  # arrives late: seq 4 <= last 4
        applied = [ops[0].node_id for _uid, _origin, ops in out.apply]
        assert applied == ["a2", "a3", "a4"]
        assert out.recovered == 2  # a2/a3 came from the piggyback
        assert out.relay  # m4's own uid was never seen either
        assert not out.need_sync
        # Stream position must not regress from piggybacked (older) seqs.
        assert not bob.behind("a", 0, 4)

    def test_recovered_counter_on_gap_path(self):
        alice, bob = UpdateManager("a"), UpdateManager("b")
        bob.receive(alice.build(0, [add_op("a")]))
        alice.build(0, [add_op("b")])  # lost
        out = bob.receive(alice.build(0, [add_op("c")]))
        assert len(out.apply) == 2
        assert out.recovered == 1  # only "b" was a piggyback recovery

    def test_duplicate_behind_with_seen_uid_is_silent(self):
        alice, bob = UpdateManager("a"), UpdateManager("b")
        m1 = alice.build(0, [add_op("x")])
        m2 = alice.build(0, [add_op("y")])
        bob.receive(m2)  # piggyback recovers m1's ops, marking its uid seen
        late = bob.receive(m1)
        assert late.apply == [] and not late.relay and not late.need_sync

    def test_gap_exactly_piggyback_depth_fully_recovers(self):
        depth = 3
        alice = UpdateManager("a", piggyback_depth=depth)
        bob = UpdateManager("b", piggyback_depth=depth)
        msgs = [alice.build(0, [add_op(f"n{i}")]) for i in range(depth + 2)]
        bob.receive(msgs[0])
        out = bob.receive(msgs[depth + 1])  # exactly `depth` seqs lost
        assert not out.need_sync
        applied = [ops[0].node_id for _uid, _origin, ops in out.apply]
        assert applied == [f"n{i}" for i in range(1, depth + 2)]

    def test_gap_one_past_piggyback_depth_needs_sync(self):
        depth = 3
        alice = UpdateManager("a", piggyback_depth=depth)
        bob = UpdateManager("b", piggyback_depth=depth)
        msgs = [alice.build(0, [add_op(f"n{i}")]) for i in range(depth + 3)]
        bob.receive(msgs[0])
        out = bob.receive(msgs[depth + 2])  # depth+1 seqs lost: one too many
        assert out.need_sync
        # The piggyback tail still recovers what it carried.
        applied = {ops[0].node_id for _uid, _origin, ops in out.apply}
        assert applied == {f"n{i}" for i in range(2, depth + 3)}


class TestSeenUidWindow:
    """The uid-dedup memory is a bounded insertion-ordered window."""

    def test_window_bounds_memory_under_sustained_churn(self):
        bob = UpdateManager("b", seen_uid_window=8)
        senders = [UpdateManager(f"s{i}") for i in range(4)]
        for round_no in range(200):
            for s in senders:
                bob.receive(s.build(0, [add_op(f"n{round_no}")]))
        assert len(bob._seen_uids) <= 8

    def test_oldest_uids_evicted_first(self):
        um = UpdateManager("me", seen_uid_window=3)
        for uid in (1, 2, 3, 4, 5):
            um.mark_seen("o", uid)
        assert list(um._seen_uids) == [("o", 3), ("o", 4), ("o", 5)]

    def test_mark_seen_idempotent_no_reorder(self):
        um = UpdateManager("me", seen_uid_window=3)
        for uid in (1, 2, 3):
            um.mark_seen("o", uid)
        um.mark_seen("o", 1)  # already present: must not refresh or evict
        assert list(um._seen_uids) == [("o", 1), ("o", 2), ("o", 3)]

    def test_same_uid_different_origin_not_deduped(self):
        # Real daemons allocate uids from their own process counter, so
        # two nodes can both emit uid 1.  Dedup keys on (origin, uid)
        # content: a colliding uid from a different originator is a
        # different update and must still apply.
        bob = UpdateManager("b")
        one = UpdateManager("s1", uid_alloc=iter([1]).__next__)
        two = UpdateManager("s2", uid_alloc=iter([1]).__next__)
        assert len(bob.receive(one.build(0, [add_op("x")])).apply) == 1
        out = bob.receive(two.build(0, [add_op("y")]))
        assert [ops[0].node_id for _uid, _origin, ops in out.apply] == ["y"]
        assert out.relay

    def test_piggyback_preserves_each_entrys_origin(self):
        # A piggybacked entry may be a relay of someone else's update; its
        # recovery must re-advertise the *original* (origin, uid), not the
        # primary message's origin.
        alice, bob = UpdateManager("a"), UpdateManager("b")
        relayed = alice.build(0, [add_op("x")], uid=7, origin="far")  # lost
        assert relayed.origin == "far"
        m2 = alice.build(0, [add_op("y")])
        out = bob.receive(m2)  # gap of 1: piggyback recovers the relay
        assert [(uid, origin) for uid, origin, _ops in out.apply] == [
            (7, "far"),
            (m2.uid, "a"),
        ]
        # The recovered group was marked seen under its true origin: the
        # straggler itself is now a duplicate.
        assert bob.receive(relayed).apply == []

    def test_evicted_uid_straggler_reapplies_harmlessly(self):
        # An evicted uid that straggles back is re-applied; the update ops
        # are idempotent per the paper, so dedup loss only costs work.
        alice = UpdateManager("a", piggyback_depth=0)
        bob = UpdateManager("b", piggyback_depth=0, seen_uid_window=2)
        m1 = alice.build(0, [add_op("x")])
        for i in range(4):  # push m1's uid out of the window
            bob.receive(alice.build(0, [add_op(f"f{i}")]))
        out = bob.receive(m1)  # behind the stream AND evicted from dedup
        assert [ops[0].node_id for _uid, _origin, ops in out.apply] == ["x"]
        assert out.relay
