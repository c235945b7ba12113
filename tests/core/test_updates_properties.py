"""Property-based tests for the update stream (hypothesis).

The key invariant: for ANY pattern of packet losses, a receiver applies
every update **at most once**, in stream order among those it applies; and
whenever gaps never exceed the piggyback depth, it applies ALL of them
without ever needing a sync.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import NodeRecord
from repro.core import HierarchicalConfig, UpdateManager, UpdateOp


def add_op(i):
    return UpdateOp("add", f"n{i}", 1, NodeRecord(f"n{i}", incarnation=1))


#: Send time of every message below that is not about expiry: all at one
#: instant, so no piggyback entry ages out.
NOW = 0.0


def manager(node_id, depth=3, **kwargs):
    """An update manager whose config sets the piggyback depth."""
    return UpdateManager(node_id, HierarchicalConfig(piggyback_depth=depth), **kwargs)


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
        sender = manager("s", depth)
        receiver = manager("r", depth)
        applied = []
        for i in range(n):
            msg = sender.build(0, [add_op(i)], NOW)
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
        sender = manager("s", depth)
        receiver = manager("r", depth)
        applied = set()
        needed_sync = False
        for i in range(n):
            msg = sender.build(0, [add_op(i)], NOW)
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
        sender = manager("s", depth)
        receiver = manager("r", depth)
        missing_uncovered = False
        last_seen = 0
        got_sync = False
        for i in range(n):
            msg = sender.build(0, [add_op(i)], NOW)
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
        sender = manager("s", depth)
        msgs = [sender.build(0, [add_op(i)], NOW) for i in range(n)]
        deliveries = msgs + msgs
        rng.shuffle(deliveries)
        receiver = manager("r", depth)
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
        st.lists(
            st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_last_size_equals_the_per_op_formula(
        self, groups, depth, member_sizes, gaps
    ):
        """The counted price of every built message equals summing its ops.

        Send times advance by drawn gaps, so piggyback entries expire at
        the level timeout on both channels, and the price must follow.
        Of the window, the carried entries are those that fit the budget
        of ``depth`` one-member updates, walked newest first.
        """
        um = manager("s", depth)
        config = um.config
        budget = depth * config.member_size
        now = 0.0
        sent = {}  # (level, seq) -> send time
        cost = {}  # (level, seq) -> bytes of its ops at config.member_size
        for i, kinds in enumerate(groups):
            now += gaps[i % len(gaps)]
            ops = [
                add_op(f"{i}.{j}") if kind == "add" else UpdateOp(kind, f"{i}.{j}", 1)
                for j, kind in enumerate(kinds)
            ]
            level = i % 2
            msg = um.build(level, ops, now)
            sent[level, msg.seq] = now
            cost[level, msg.seq] = sum(op.size(config.member_size) for op in ops)
            carried = [seq for seq, _uid, _origin, _ops in msg.piggyback]
            window = [
                seq
                for seq in range(max(1, msg.seq - depth), msg.seq)
                if now - sent[level, seq] <= config.level_timeout(level)
            ]
            expected, room = [], budget
            for seq in reversed(window):
                if cost[level, seq] <= room:
                    room -= cost[level, seq]
                    expected.insert(0, seq)
            assert carried == expected
            # A live member_size change prices right, as the op walk would.
            for member_size in member_sizes:
                assert um.last_size(member_size) == msg.size(member_size)
