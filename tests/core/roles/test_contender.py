"""Contender role in isolation: what a fresh leader tells its groups.

A new leader re-announces the subtree it now vouches for only where
that moves someone's attribution: its group has peers, or a dead
predecessor whose entries it inherits.  A climb into an empty group
(the root alone on the upper levels) originates nothing.

A fresh leader pulls its members' state at once, even from a member it
polled less than ``min_sync_interval`` ago.
"""

from repro.cluster.directory import NodeRecord


def update_ops(daemon):
    """``(channel, node ids)`` of every update multicast so far."""
    return [
        (channel, sorted(op.node_id for op in msg.ops))
        for (channel, _, kind, msg, _) in daemon.runtime.published
        if kind == "update"
    ]


class TestReannounce:
    def test_leader_of_an_empty_group_originates_nothing(self, daemon):
        daemon.ctx.contender.become_leader(0)
        assert daemon.ctx.groups[0].i_am_leader
        assert update_ops(daemon) == []

    def test_climb_into_an_empty_level_originates_nothing(self, daemon):
        daemon.add_peer("p1")
        daemon.ctx.contender.become_leader(0)
        before = update_ops(daemon)
        assert before  # the level-0 win re-announced {n0, p1}
        assert 1 in daemon.ctx.groups  # joined the channel above
        daemon.ctx.contender.become_leader(1)
        assert daemon.ctx.groups[1].i_am_leader
        assert update_ops(daemon) == before

    def test_leader_with_peers_reannounces_its_subtree(self, daemon):
        daemon.add_peer("p1")
        daemon.add_peer("p2")
        daemon.ctx.contender.become_leader(0)
        assert update_ops(daemon) == [
            (daemon.config.channel(0), ["n0", "p1", "p2"])
        ]

    def test_heir_of_a_dead_leader_reannounces_and_inherits(self, daemon):
        # Alone in the group, but a dead predecessor's vouched entries
        # pass to this node: the others must learn who vouches now.
        daemon.directory.upsert(NodeRecord("far", 1), 0.0, relayed_by="old")
        group = daemon.ctx.groups[0]
        group.last_dead_leader = "old"
        daemon.ctx.contender.become_leader(0)
        assert group.last_dead_leader is None
        assert daemon.directory.relayed_by("far") == "n0"
        assert update_ops(daemon) == [(daemon.config.channel(0), ["n0"])]


class TestLeaderPull:
    def test_a_fresh_leader_pulls_a_member_it_synced_with_just_now(self, daemon):
        daemon.add_peer("p1")
        assert daemon.ctx.informer.maybe_sync("p1") is True
        daemon.runtime.time = daemon.config.min_sync_interval / 2
        # An ordinary poll is still held back by the limiter ...
        assert daemon.ctx.informer.maybe_sync("p1") is False
        sent_before = len(daemon.runtime.sent)
        # ... but the fresh leader's pull goes out now.
        daemon.ctx.contender.become_leader(0)
        pulls = [dst for (dst, kind, *_rest) in daemon.runtime.sent[sent_before:]
                 if kind == "sync_req"]
        assert pulls == ["p1"]
