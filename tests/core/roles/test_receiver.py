"""Receiver role in isolation: the no-change path's cached directory
slot, and the newcomer announcement.

A peer caches the slot of its directory entry.  The slot table takes a
slot back once no directory holds its id and hands it to the next new
id, whose entry then lives in the same column cells.  A stale slot must
never refresh whichever node now owns those cells.

A relay point that hears a new peer announces it by the relay rule:
on every other channel it joins, and on the peer's own channel only
when it leads that channel.
"""

import pytest

from repro.cluster.directory import NodeRecord
from repro.core.heartbeat import Heartbeat
from repro.net.packet import Packet


def heartbeat_packet(record, channel, level=0):
    hb = Heartbeat(record, level=level, is_leader=False, suppressed=False)
    return Packet(src=record.node_id, kind="heartbeat", payload=hb, size=64, channel=channel)


def fill_until(directory, slot, relayer):
    """Insert fresh nodes until one is assigned ``slot``."""
    held = directory.slot_access().held
    for i in range(len(directory.slot_table.ids) + 2):
        nid = f"other{i}"
        assert directory.insert_new([NodeRecord(nid)], 2.0, relayed_by=relayer) == 1
        if held(nid) == slot:
            return nid
    raise AssertionError("the released slot was never reassigned")


@pytest.mark.parametrize("relayer", [None, "L1"])
@pytest.mark.parametrize("free", ["remove", "clear"])
def test_a_stale_offset_never_refreshes_another_node(daemon, free, relayer):
    channel = daemon.config.channel(0)
    handler = daemon.runtime.subscriptions[channel]
    directory = daemon.directory
    held, _slot_of, ids, _records, _relayers, _fresh = directory.slot_access()
    packet = heartbeat_packet(NodeRecord("p1", incarnation=1), channel)
    handler(packet)  # full absorb
    daemon.runtime.time = 1.0
    handler(packet)  # no-change path: caches the slot
    peer = daemon.ctx.groups[0].peers["p1"]
    cached = peer.dir_slot
    assert cached is not None and cached == held("p1")
    assert directory.last_refresh("p1") == 1.0

    if free == "remove":
        directory.remove("p1")
    else:
        directory.clear()
    # The daemon's directory was the only holder: the table took the slot
    # back, and the next new id is assigned it.
    assert ids[cached] is None
    other = fill_until(directory, cached, relayer)
    assert ids[cached] == other

    daemon.runtime.time = 5.0
    handler(packet)  # the same heartbeat object: the no-change path again
    assert directory.last_refresh(other) == 2.0
    assert directory.relayed_by(other) == relayer
    # The peer re-probed, found no entry and fell through to the full
    # absorb, which filed it anew under another slot.
    assert peer.dir_slot is None
    assert directory.last_refresh("p1") == 5.0 and directory.relayed_by("p1") is None
    assert held("p1") != cached

    daemon.runtime.time = 6.0
    handler(packet)
    assert peer.dir_slot == held("p1")
    assert directory.last_refresh("p1") == 6.0
    assert directory.last_refresh(other) == 2.0


def test_a_slot_another_directory_holds_falls_through_to_the_full_absorb(daemon):
    # The slot stays assigned to the peer's id while a second directory on
    # the table holds it, so the cached slot still names the peer; the
    # daemon's own cells there are blank, and the heartbeat must re-file.
    from repro.cluster.directory import Directory

    channel = daemon.config.channel(0)
    handler = daemon.runtime.subscriptions[channel]
    directory = daemon.directory
    neighbour = Directory("n9", directory.slot_table)
    neighbour.upsert(NodeRecord("p1", incarnation=1), 0.0)
    packet = heartbeat_packet(NodeRecord("p1", incarnation=1), channel)
    handler(packet)
    daemon.runtime.time = 1.0
    handler(packet)
    peer = daemon.ctx.groups[0].peers["p1"]
    cached = peer.dir_slot
    assert cached == neighbour.slot_access().held("p1")

    directory.remove("p1")
    assert directory.slot_table.ids[cached] == "p1"
    daemon.runtime.time = 2.0
    handler(packet)
    assert "p1" in directory and directory.last_refresh("p1") == 2.0
    assert peer.dir_slot == cached == directory.slot_access().held("p1")
    assert neighbour.last_refresh("p1") == 0.0


class TestNewcomerAnnouncement:
    """A relay point announces a newly heard peer by the relay rule (Fig. 5).

    The peer's own channel heard its heartbeat, so it gets the add only
    as its leader's echo; every other joined channel gets one copy.
    """

    @staticmethod
    def announced(daemon):
        """``(level, node ids)`` of every update multicast so far."""
        levels = {daemon.config.channel(lv): lv for lv in daemon.ctx.groups}
        return [
            (levels[channel], sorted(op.node_id for op in msg.ops))
            for (channel, _, kind, msg, _) in daemon.runtime.published
            if kind == "update"
        ]

    @staticmethod
    def hear(daemon, node_id, level):
        channel = daemon.config.channel(level)
        packet = heartbeat_packet(NodeRecord(node_id, incarnation=1), channel, level)
        daemon.runtime.subscriptions[channel](packet)

    def test_a_peer_heard_on_a_channel_it_does_not_lead_goes_to_the_others(self, daemon):
        daemon.ctx.groups[0].i_am_leader = True
        daemon.ctx.participate(1)
        self.hear(daemon, "q1", level=1)
        assert self.announced(daemon) == [(0, ["q1"])]

    def test_the_leader_of_the_channel_echoes_it_there_too(self, daemon):
        daemon.ctx.groups[0].i_am_leader = True
        daemon.ctx.participate(1)
        self.hear(daemon, "p1", level=0)
        assert self.announced(daemon) == [(0, ["p1"]), (1, ["p1"])]
        # One logical update: every copy carries the same (origin, uid),
        # so a node that hears two of them applies one.
        copies = [msg for (_, _, kind, msg, _) in daemon.runtime.published
                  if kind == "update"]
        assert {(m.origin, m.uid) for m in copies} == {("n0", copies[0].uid)}

    def test_a_plain_member_announces_nothing(self, daemon):
        self.hear(daemon, "p1", level=0)
        assert self.announced(daemon) == []
