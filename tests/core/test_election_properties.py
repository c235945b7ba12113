"""Property-based tests for the election rules and formation invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import NodeRecord
from repro.core import Decision, GroupState, Heartbeat, decide
from repro.core import HierarchicalNode
from repro.net import Network
from repro.net.builders import build_switched_cluster
from repro.protocols import deploy

DELAY = 2.5


@st.composite
def group_states(draw):
    g = GroupState(level=draw(st.integers(min_value=0, max_value=3)))
    n_peers = draw(st.integers(min_value=0, max_value=6))
    for i in range(n_peers):
        hb = Heartbeat(
            record=NodeRecord(f"p{i}", incarnation=1),
            level=g.level,
            is_leader=draw(st.booleans()),
            suppressed=draw(st.booleans()),
        )
        g.note_heartbeat(hb, now=0.0)
    g.i_am_leader = draw(st.booleans())
    g.suppressed = draw(st.booleans())
    if draw(st.booleans()):
        g.leaderless_since = draw(st.floats(min_value=0, max_value=10, allow_nan=False))
    return g


class TestElectionProperties:
    @given(group_states(), st.floats(min_value=0, max_value=100, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_never_become_leader_while_seeing_one(self, g, now):
        decision = decide(g, "me", now, DELAY)
        if g.visible_leaders():
            assert decision is not Decision.BECOME_LEADER

    @given(group_states(), st.floats(min_value=0, max_value=100, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_step_down_only_for_lower_id_leader(self, g, now):
        decision = decide(g, "me", now, DELAY)
        if decision is Decision.STEP_DOWN:
            assert g.i_am_leader
            assert g.visible_leaders() and g.visible_leaders()[0] < "me"

    @given(group_states(), st.floats(min_value=0, max_value=100, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_contention_respects_lower_unsuppressed_ids(self, g, now):
        decision = decide(g, "p3", now, DELAY)
        if decision is Decision.BECOME_LEADER:
            lower_contenders = [
                p
                for p in g.peers.values()
                if not p.suppressed and not p.is_leader and p.node_id < "p3"
            ]
            assert not lower_contenders

    @given(group_states())
    @settings(max_examples=300, deadline=None)
    def test_suppression_tracks_leader_visibility(self, g):
        decide(g, "me", 50.0, DELAY)
        if not g.i_am_leader:
            assert g.suppressed == bool(g.visible_leaders())

    @given(group_states(), st.floats(min_value=0, max_value=100, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_decide_is_idempotent_within_an_instant(self, g, now):
        first = decide(g, "me", now, DELAY)
        if first is Decision.BECOME_LEADER:
            g.i_am_leader = True
        second = decide(g, "me", now, DELAY)
        if first is Decision.BECOME_LEADER:
            assert second in (Decision.STAY,)
        elif first is Decision.STAY and not g.i_am_leader:
            assert second is Decision.STAY


class TestFormationInvariants:
    """Whole-protocol invariants on randomly-shaped clusters."""

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=12, deadline=None)
    def test_formation_invariants(self, networks, per, seed):
        topo, hosts = build_switched_cluster(networks, per)
        net = Network(topo, seed=seed)
        nodes = deploy(HierarchicalNode, net, hosts)
        net.run(until=14.0)
        n = len(hosts)
        leaders0 = [h for h in hosts if nodes[h].is_leader(0)]
        # Complete views everywhere.
        assert all(len(node.view()) == n for node in nodes.values())
        # Exactly one level-0 leader per network, and it is the lowest id.
        assert len(leaders0) == networks
        for netidx in range(networks):
            members = [h for h in hosts if f"-n{netidx}-" in h]
            assert min(members) in leaders0
        # A leader never sees another leader on the same channel.
        for node in nodes.values():
            for level in node.levels():
                if node.is_leader(level):
                    assert node._ctx.groups[level].visible_leaders() == []
        # Participation invariant: level l+1 participation implies
        # leadership at level l.
        for node in nodes.values():
            levels = node.levels()
            for level in levels:
                if level > 0:
                    assert node.is_leader(level - 1)
