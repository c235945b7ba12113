"""Unit tests for the update sub-protocol (seq numbers, piggyback, dedup)."""

from repro.cluster import NodeRecord
from repro.core import HierarchicalConfig, UpdateManager, UpdateOp


def add_op(nid, inc=1):
    return UpdateOp("add", nid, inc, NodeRecord(nid, incarnation=inc))


def rm_op(nid, inc=1):
    return UpdateOp("remove", nid, inc)


#: Send time of every message below that is not about expiry: all at one
#: instant, so no piggyback entry ages out.
NOW = 0.0


def manager(node_id, depth=3, **kwargs):
    """An update manager whose config sets the piggyback depth."""
    return UpdateManager(node_id, HierarchicalConfig(piggyback_depth=depth), **kwargs)


class TestBuild:
    def test_seq_increments_per_level(self):
        um = manager("me")
        m1 = um.build(0, [add_op("a")], NOW)
        m2 = um.build(0, [add_op("b")], NOW)
        m3 = um.build(1, [add_op("c")], NOW)
        assert (m1.seq, m2.seq, m3.seq) == (1, 2, 1)

    def test_uid_unique_and_carried_through(self):
        um = manager("me")
        m1 = um.build(0, [add_op("a")], NOW)
        m2 = um.build(0, [add_op("b")], NOW)
        assert m1.uid != m2.uid
        relay = um.build(1, m1.ops, NOW, uid=m1.uid, origin=m1.origin)
        assert relay.uid == m1.uid
        assert relay.origin == "me"

    def test_piggyback_carries_last_k(self):
        um = manager("me", 3)
        msgs = [um.build(0, [add_op(f"n{i}")], NOW) for i in range(5)]
        last = msgs[-1]
        assert [seq for seq, _uid, _origin, _ops in last.piggyback] == [2, 3, 4]

    def test_piggyback_per_level(self):
        um = manager("me")
        um.build(0, [add_op("a")], NOW)
        m = um.build(1, [add_op("b")], NOW)
        assert m.piggyback == ()

    def test_current_seq(self):
        um = manager("me")
        assert um.current_seq(0) == 0
        um.build(0, [add_op("a")], NOW)
        assert um.current_seq(0) == 1

    def test_message_size(self):
        um = manager("me")
        m = um.build(0, [add_op("a"), rm_op("b")], NOW)
        # header 28 + add 228 + remove 24
        assert m.size(member_size=228) == 280

    def test_size_includes_piggyback(self):
        um = manager("me", 3)
        um.build(0, [add_op("a")], NOW)
        m = um.build(0, [add_op("b")], NOW)
        assert m.size(228) == 28 + 228 + 228


class TestPiggybackHorizon:
    """An entry rides along until ``level_timeout(level)`` after its send."""

    def test_entry_is_carried_up_to_the_level_timeout(self):
        for level in (0, 1, 2):
            timeout = HierarchicalConfig().level_timeout(level)
            um = manager("me")
            first = um.build(level, [add_op("a")], 10.0)
            m = um.build(level, [add_op("b")], 10.0 + timeout)
            assert [uid for _seq, uid, _o, _ops in m.piggyback] == [first.uid]
            assert um.last_size(228) == m.size(228) == 28 + 2 * 228

    def test_entry_is_dropped_after_the_level_timeout(self):
        for level in (0, 1, 2):
            timeout = HierarchicalConfig().level_timeout(level)
            um = manager("me")
            um.build(level, [add_op("a")], 10.0)
            m = um.build(level, [add_op("b")], 10.0 + timeout + 0.01)
            assert m.piggyback == ()
            assert um.last_size(228) == m.size(228) == 28 + 228

    def test_only_the_expired_entries_go(self):
        timeout = HierarchicalConfig().level_timeout(0)
        um = manager("me", depth=3)
        for t in (0.0, 1.0, 2.0):
            um.build(0, [add_op(f"n{t}")], t)
        m = um.build(0, [add_op("late")], 1.5 + timeout)
        assert [seq for seq, _uid, _o, _ops in m.piggyback] == [3]
        # The horizon is per channel: level 1's entries are judged by its
        # own, longer timeout.
        um.build(1, [add_op("up")], 0.0)
        m1 = um.build(1, [add_op("up2")], 1.5 + timeout)
        assert [seq for seq, _uid, _o, _ops in m1.piggyback] == [1]

    def test_a_gap_over_an_expired_entry_needs_sync(self):
        timeout = HierarchicalConfig().level_timeout(0)
        alice, bob = manager("alice"), manager("bob")
        bob.receive(alice.build(0, [add_op("a")], 0.0))
        alice.build(0, [add_op("b")], 1.0)  # lost, and never heard of since
        out = bob.receive(alice.build(0, [add_op("c")], 2.0 + timeout))
        assert out.need_sync
        assert [ops[0].node_id for _uid, _origin, ops in out.apply] == ["c"]


class TestPiggybackBudget:
    """The piggyback carries at most ``depth`` one-member updates' bytes."""

    def test_single_op_entries_up_to_the_depth_ride(self):
        for depth in (1, 3, 6):
            um = manager("me", depth)
            for i in range(depth):
                um.build(0, [add_op(f"a{i}") if i % 2 else rm_op(f"r{i}")], NOW)
            m = um.build(0, [add_op("last")], NOW)
            assert [seq for seq, _uid, _o, _ops in m.piggyback] == list(range(1, depth + 1))
            assert um.last_size(228) == m.size(228)

    def test_an_over_budget_entry_is_left_out(self):
        um = manager("me", 3)
        um.build(0, [add_op("a")], NOW)
        um.build(0, [add_op(f"f{i}") for i in range(4)], NOW)  # a flood
        um.build(0, [rm_op("b")], NOW)
        m = um.build(0, [add_op("c")], NOW)
        assert [seq for seq, _uid, _o, _ops in m.piggyback] == [1, 3]
        assert um.last_size(228) == m.size(228) == 28 + 228 + 228 + 24

    def test_the_budget_is_filled_newest_first(self):
        um = manager("me", 3)
        um.build(0, [add_op("a")], NOW)
        um.build(0, [add_op("b"), add_op("c")], NOW)
        um.build(0, [add_op("d"), add_op("e")], NOW)
        m = um.build(0, [add_op("f")], NOW)
        # Seq 3 takes two of the three slots, seq 2 no longer fits, seq 1 does.
        assert [seq for seq, _uid, _o, _ops in m.piggyback] == [1, 3]

    def test_a_gap_over_a_left_out_entry_needs_sync(self):
        alice, bob = manager("alice"), manager("bob")
        bob.receive(alice.build(0, [add_op("a")], NOW))
        alice.build(0, [add_op(f"f{i}") for i in range(4)], NOW)  # lost
        out = bob.receive(alice.build(0, [add_op("c")], NOW))
        assert out.need_sync
        assert [ops[0].node_id for _uid, _origin, ops in out.apply] == ["c"]

    def test_depth_zero_carries_nothing(self):
        um = manager("me", 0)
        um.build(0, [add_op("a")], NOW)
        m = um.build(0, [rm_op("b")], NOW)
        assert m.piggyback == ()
        assert um.last_size(228) == m.size(228) == 28 + 24


class TestReceive:
    def test_in_order_stream(self):
        alice, bob = manager("alice"), manager("bob")
        for i in range(3):
            msg = alice.build(0, [add_op(f"n{i}")], NOW)
            out = bob.receive(msg)
            assert [ops[0].node_id for _uid, _origin, ops in out.apply] == [f"n{i}"]
            assert not out.need_sync

    def test_duplicate_uid_not_reapplied(self):
        alice, bob = manager("alice"), manager("bob")
        msg = alice.build(0, [add_op("x")], NOW)
        assert len(bob.receive(msg).apply) == 1
        assert bob.receive(msg).apply == []

    def test_relay_through_second_channel_deduped(self):
        alice, carol, bob = manager("alice"), manager("carol"), manager("bob")
        orig = alice.build(0, [add_op("x")], NOW)
        assert len(bob.receive(orig).apply) == 1
        relay = carol.build(1, orig.ops, NOW, uid=orig.uid, origin=orig.origin)
        assert bob.receive(relay).apply == []

    def test_gap_recovered_from_piggyback(self):
        alice, bob = manager("alice"), manager("bob")
        m1 = alice.build(0, [add_op("a")], NOW)
        m2 = alice.build(0, [add_op("b")], NOW)  # lost
        m3 = alice.build(0, [add_op("c")], NOW)
        bob.receive(m1)
        out = bob.receive(m3)
        applied = [ops[0].node_id for _uid, _origin, ops in out.apply]
        assert applied == ["b", "c"]  # recovered op first, in seq order
        assert not out.need_sync

    def test_gap_beyond_piggyback_needs_sync(self):
        alice, bob = manager("alice", 3), manager("bob", 3)
        msgs = [alice.build(0, [add_op(f"n{i}")], NOW) for i in range(6)]
        bob.receive(msgs[0])
        out = bob.receive(msgs[5])  # lost seqs 2..5: piggyback has 3..5 only
        assert out.need_sync
        # Still recovers what the piggyback carried.
        recovered = {ops[0].node_id for _uid, _origin, ops in out.apply}
        assert recovered == {"n2", "n3", "n4", "n5"}

    def test_exactly_max_loss_recoverable(self):
        # piggyback depth 3 tolerates 3 consecutive losses
        alice, bob = manager("a"), manager("b")
        msgs = [alice.build(0, [add_op(f"n{i}")], NOW) for i in range(5)]
        bob.receive(msgs[0])
        out = bob.receive(msgs[4])  # seqs 2,3,4 lost; piggyback = 2,3,4
        assert not out.need_sync
        assert len(out.apply) == 4

    def test_reordered_old_packet_is_noop(self):
        alice, bob = manager("a"), manager("b")
        m1 = alice.build(0, [add_op("a")], NOW)
        m2 = alice.build(0, [add_op("b")], NOW)
        bob.receive(m2)
        out = bob.receive(m1)  # arrives late; uid already seen via piggyback
        assert not out.need_sync
        assert out.apply == []

    def test_streams_per_sender(self):
        a1, a2, bob = manager("s1"), manager("s2"), manager("bob")
        bob.receive(a1.build(0, [add_op("x")], NOW))
        out = bob.receive(a2.build(0, [add_op("y")], NOW))
        assert not out.need_sync  # different sender, own stream

    def test_forget_sender_resets_stream(self):
        alice, bob = manager("a"), manager("b")
        for i in range(5):
            bob.receive(alice.build(0, [add_op(f"n{i}")], NOW))
        bob.forget_sender("a")
        fresh = manager("a")  # restarted daemon, seq restarts at 1
        out = bob.receive(fresh.build(0, [add_op("z")], NOW))
        assert len(out.apply) == 1
        assert not out.need_sync


class TestBehind:
    def test_not_behind_initially_at_zero(self):
        bob = manager("b")
        assert not bob.behind("a", 0, 0)

    def test_behind_when_never_heard(self):
        bob = manager("b")
        assert bob.behind("a", 0, 3)

    def test_behind_when_lagging(self):
        alice, bob = manager("a"), manager("b")
        bob.receive(alice.build(0, [add_op("x")], NOW))
        assert not bob.behind("a", 0, 1)
        assert bob.behind("a", 0, 2)

    def test_note_synced(self):
        bob = manager("b")
        bob.note_synced("a", 0, 5)
        assert not bob.behind("a", 0, 5)
        assert bob.behind("a", 0, 6)

    def test_note_synced_never_regresses(self):
        bob = manager("b")
        bob.note_synced("a", 0, 5)
        bob.note_synced("a", 0, 3)
        assert not bob.behind("a", 0, 5)

    def test_reset(self):
        um = manager("me")
        um.build(0, [add_op("a")], NOW)
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
        alice = manager("a", 0)
        bob = manager("b", 0)
        m1 = alice.build(0, [add_op("x")], NOW)
        m2 = alice.build(0, [add_op("y")], NOW)
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
        alice, bob = manager("a"), manager("b")
        m1 = alice.build(0, [add_op("a1")], NOW)
        alice.build(0, [add_op("a2")], NOW)  # lost
        alice.build(0, [add_op("a3")], NOW)  # lost
        m4 = alice.build(0, [add_op("a4")], NOW)  # delayed in flight
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
        alice, bob = manager("a"), manager("b")
        bob.receive(alice.build(0, [add_op("a")], NOW))
        alice.build(0, [add_op("b")], NOW)  # lost
        out = bob.receive(alice.build(0, [add_op("c")], NOW))
        assert len(out.apply) == 2
        assert out.recovered == 1  # only "b" was a piggyback recovery

    def test_duplicate_behind_with_seen_uid_is_silent(self):
        alice, bob = manager("a"), manager("b")
        m1 = alice.build(0, [add_op("x")], NOW)
        m2 = alice.build(0, [add_op("y")], NOW)
        bob.receive(m2)  # piggyback recovers m1's ops, marking its uid seen
        late = bob.receive(m1)
        assert late.apply == [] and not late.relay and not late.need_sync

    def test_gap_exactly_piggyback_depth_fully_recovers(self):
        depth = 3
        alice = manager("a", depth)
        bob = manager("b", depth)
        msgs = [alice.build(0, [add_op(f"n{i}")], NOW) for i in range(depth + 2)]
        bob.receive(msgs[0])
        out = bob.receive(msgs[depth + 1])  # exactly `depth` seqs lost
        assert not out.need_sync
        applied = [ops[0].node_id for _uid, _origin, ops in out.apply]
        assert applied == [f"n{i}" for i in range(1, depth + 2)]

    def test_gap_one_past_piggyback_depth_needs_sync(self):
        depth = 3
        alice = manager("a", depth)
        bob = manager("b", depth)
        msgs = [alice.build(0, [add_op(f"n{i}")], NOW) for i in range(depth + 3)]
        bob.receive(msgs[0])
        out = bob.receive(msgs[depth + 2])  # depth+1 seqs lost: one too many
        assert out.need_sync
        # The piggyback tail still recovers what it carried.
        applied = {ops[0].node_id for _uid, _origin, ops in out.apply}
        assert applied == {f"n{i}" for i in range(2, depth + 3)}


class TestSeenUidWindow:
    """The uid-dedup memory is a bounded insertion-ordered window."""

    def test_window_bounds_memory_under_sustained_churn(self):
        bob = manager("b", seen_uid_window=8)
        senders = [manager(f"s{i}") for i in range(4)]
        for round_no in range(200):
            for s in senders:
                bob.receive(s.build(0, [add_op(f"n{round_no}")], NOW))
        assert len(bob._seen_uids) <= 8

    def test_oldest_uids_evicted_first(self):
        um = manager("me", seen_uid_window=3)
        for uid in (1, 2, 3, 4, 5):
            um.mark_seen("o", uid)
        assert list(um._seen_uids) == [("o", 3), ("o", 4), ("o", 5)]

    def test_mark_seen_idempotent_no_reorder(self):
        um = manager("me", seen_uid_window=3)
        for uid in (1, 2, 3):
            um.mark_seen("o", uid)
        um.mark_seen("o", 1)  # already present: must not refresh or evict
        assert list(um._seen_uids) == [("o", 1), ("o", 2), ("o", 3)]

    def test_same_uid_different_origin_not_deduped(self):
        # Real daemons allocate uids from their own process counter, so
        # two nodes can both emit uid 1.  Dedup keys on (origin, uid)
        # content: a colliding uid from a different originator is a
        # different update and must still apply.
        bob = manager("b")
        one = manager("s1", uid_alloc=iter([1]).__next__)
        two = manager("s2", uid_alloc=iter([1]).__next__)
        assert len(bob.receive(one.build(0, [add_op("x")], NOW)).apply) == 1
        out = bob.receive(two.build(0, [add_op("y")], NOW))
        assert [ops[0].node_id for _uid, _origin, ops in out.apply] == ["y"]
        assert out.relay

    def test_piggyback_preserves_each_entrys_origin(self):
        # A piggybacked entry may be a relay of someone else's update; its
        # recovery must re-advertise the *original* (origin, uid), not the
        # primary message's origin.
        alice, bob = manager("a"), manager("b")
        relayed = alice.build(0, [add_op("x")], NOW, uid=7, origin="far")  # lost
        assert relayed.origin == "far"
        m2 = alice.build(0, [add_op("y")], NOW)
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
        alice = manager("a", 0)
        bob = manager("b", 0, seen_uid_window=2)
        m1 = alice.build(0, [add_op("x")], NOW)
        for i in range(4):  # push m1's uid out of the window
            bob.receive(alice.build(0, [add_op(f"f{i}")], NOW))
        out = bob.receive(m1)  # behind the stream AND evicted from dedup
        assert [ops[0].node_id for _uid, _origin, ops in out.apply] == ["x"]
        assert out.relay
