"""Property-based tests for the update stream (hypothesis).

The key invariant: for ANY pattern of packet losses, a receiver applies
every update **at most once**, in stream order among those it applies; and
whenever gaps never exceed the piggyback depth, it applies ALL of them
without ever needing a sync.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import NodeRecord
from repro.core import UpdateManager, UpdateOp


def add_op(i):
    return UpdateOp("add", f"n{i}", 1, NodeRecord(f"n{i}", incarnation=1))


@st.composite
def stream_with_losses(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    depth = draw(st.integers(min_value=0, max_value=5))
    lost = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n))
    return n, depth, lost


class TestStreamProperties:
    @given(stream_with_losses())
    @settings(max_examples=300, deadline=None)
    def test_at_most_once_and_ordered(self, case):
        n, depth, lost = case
        sender = UpdateManager("s", piggyback_depth=depth)
        receiver = UpdateManager("r", piggyback_depth=depth)
        applied = []
        for i in range(n):
            msg = sender.build(0, [add_op(i)])
            if i in lost:
                continue
            out = receiver.receive(msg)
            for _uid, _origin, ops in out.apply:
                applied.append(ops[0].node_id)
        # No duplicates.
        assert len(applied) == len(set(applied))
        # Order preserved (subsequence of the send order).
        indices = [int(x[1:]) for x in applied]
        assert indices == sorted(indices)

    @given(stream_with_losses())
    @settings(max_examples=300, deadline=None)
    def test_bounded_gaps_recover_everything(self, case):
        n, depth, lost = case
        # Constrain losses to runs of at most `depth` consecutive packets,
        # and never lose the final packet (nothing after it to recover it).
        lost = {
            i
            for i in lost
            if i != n - 1
        }
        run = 0
        bounded = set()
        for i in range(n):
            if i in lost and run < depth:
                bounded.add(i)
                run += 1
            else:
                run = 0
        sender = UpdateManager("s", piggyback_depth=depth)
        receiver = UpdateManager("r", piggyback_depth=depth)
        applied = set()
        needed_sync = False
        for i in range(n):
            msg = sender.build(0, [add_op(i)])
            if i in bounded:
                continue
            out = receiver.receive(msg)
            needed_sync |= out.need_sync
            for _uid, _origin, ops in out.apply:
                applied.add(ops[0].node_id)
        assert applied == {f"n{i}" for i in range(n)}
        assert not needed_sync

    @given(stream_with_losses())
    @settings(max_examples=200, deadline=None)
    def test_sync_flag_iff_unrecoverable(self, case):
        """need_sync fires exactly when some delivered packet saw a gap
        larger than its piggyback could cover."""
        n, depth, lost = case
        sender = UpdateManager("s", piggyback_depth=depth)
        receiver = UpdateManager("r", piggyback_depth=depth)
        missing_uncovered = False
        last_seen = 0
        got_sync = False
        for i in range(n):
            msg = sender.build(0, [add_op(i)])
            if i in lost:
                continue
            gap = msg.seq - last_seen - 1
            if gap > depth:
                missing_uncovered = True
            last_seen = msg.seq
            out = receiver.receive(msg)
            got_sync |= out.need_sync
        assert got_sync == missing_uncovered

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=4),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_duplicate_and_reordered_delivery_safe(self, n, depth, rng):
        """Deliver the whole stream twice in random order: every update is
        applied exactly once (uid dedup absorbs duplicates + reordering)."""
        sender = UpdateManager("s", piggyback_depth=depth)
        msgs = [sender.build(0, [add_op(i)]) for i in range(n)]
        deliveries = msgs + msgs
        rng.shuffle(deliveries)
        receiver = UpdateManager("r", piggyback_depth=depth)
        applied = []
        for msg in deliveries:
            for _uid, _origin, ops in receiver.receive(msg).apply:
                applied.append(ops[0].node_id)
        assert sorted(applied) == sorted({f"n{i}" for i in range(n)} & set(applied))
        assert len(applied) == len(set(applied))


_op_mixes = st.lists(
    st.lists(st.sampled_from(("add", "remove", "leave")), max_size=6),
    min_size=1,
    max_size=12,
)


class TestSendSize:
    @given(
        _op_mixes,
        st.integers(min_value=0, max_value=5),
        st.lists(st.integers(min_value=0, max_value=600), min_size=1, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_last_size_equals_the_per_op_formula(self, groups, depth, member_sizes):
        """The counted price of every built message equals summing its ops."""
        um = UpdateManager("s", piggyback_depth=depth)
        for i, kinds in enumerate(groups):
            ops = [
                add_op(f"{i}.{j}") if kind == "add" else UpdateOp(kind, f"{i}.{j}", 1)
                for j, kind in enumerate(kinds)
            ]
            msg = um.build(i % 2, ops)
            # A live member_size change prices right, as the op walk would.
            for member_size in member_sizes:
                assert um.last_size(member_size) == msg.size(member_size)
