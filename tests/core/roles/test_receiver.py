"""Receiver role in isolation: the no-change path's cached directory offset.

A peer caches the offset of its directory entry, and the cells at that
offset are freed on removal and reused by the next insert.  A stale
offset must never refresh whichever node now owns those cells.
"""

import pytest

from repro.cluster.directory import NodeRecord
from repro.core.heartbeat import Heartbeat
from repro.net.packet import Packet


def heartbeat_packet(record, channel):
    hb = Heartbeat(record, level=0, is_leader=False, suppressed=False)
    return Packet(src=record.node_id, kind="heartbeat", payload=hb, size=64, channel=channel)


def fill_until(directory, offset, relayer):
    """Insert fresh nodes until one occupies the cells at ``offset``."""
    offset_of, _cells = directory.cell_access()
    for i in range(len(directory) + 2):
        nid = f"other{i}"
        directory.insert_new(NodeRecord(nid), 2.0, relayed_by=relayer)
        if offset_of(nid) == offset:
            return nid
    raise AssertionError("the freed cells were never reused")


@pytest.mark.parametrize("relayer", [None, "L1"])
@pytest.mark.parametrize("free", ["remove", "clear"])
def test_a_stale_offset_never_refreshes_another_node(daemon, free, relayer):
    channel = daemon.config.channel(0)
    handler = daemon.runtime.subscriptions[channel]
    directory = daemon.directory
    offset_of, _cells = directory.cell_access()
    packet = heartbeat_packet(NodeRecord("p1", incarnation=1), channel)
    handler(packet)  # full absorb
    daemon.runtime.time = 1.0
    handler(packet)  # no-change path: caches the offset
    peer = daemon.ctx.groups[0].peers["p1"]
    cached = peer.dir_offset
    assert cached is not None and cached == offset_of("p1")
    assert directory.last_refresh("p1") == 1.0

    if free == "remove":
        directory.remove("p1")
    else:
        directory.clear()
    other = fill_until(directory, cached, relayer)

    daemon.runtime.time = 5.0
    handler(packet)  # the same heartbeat object: the no-change path again
    assert directory.last_refresh(other) == 2.0
    assert directory.relayed_by(other) == relayer
    # The peer re-probed, found no entry and fell through to the full
    # absorb, which filed it anew in other cells.
    assert peer.dir_offset is None
    assert directory.last_refresh("p1") == 5.0 and directory.relayed_by("p1") is None
    assert offset_of("p1") != cached

    daemon.runtime.time = 6.0
    handler(packet)
    assert peer.dir_offset == offset_of("p1")
    assert directory.last_refresh("p1") == 6.0
    assert directory.last_refresh(other) == 2.0
