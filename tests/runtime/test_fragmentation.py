"""Fragmentation/reassembly edge cases (:mod:`repro.runtime.wire`).

The pure-codec tests drive :func:`fragment_frame`/:class:`Reassembler`
directly with a fake clock (deterministic, no sockets); the loopback
test sends a >64 KiB view-shaped payload between two live
:class:`AsyncRuntime` endpoints over real UDP and asserts it arrives
intact and *equal* — the satellite the MTU cliff demands.
"""

import asyncio
import socket

import pytest

from repro.cluster.directory import NodeRecord
from repro.runtime.anet import RECV_BUFFER, AsyncRuntime, ClusterSpec, NodeSpec, RelaySpec
from repro.runtime.wire import (
    DEFAULT_MAX_DATAGRAM,
    Reassembler,
    WireError,
    fragment_frame,
    is_fragment,
    parse_fragment,
)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def frags_of(data=b"z" * 5000, origin="n0", frame_id=1, max_payload=1000):
    return fragment_frame(data, origin, frame_id, max_payload)


# ----------------------------------------------------------------------
# fragment_frame / parse_fragment
# ----------------------------------------------------------------------
class TestFragmentFrame:
    def test_small_frame_passes_through_unwrapped(self):
        data = b"q" * 500
        assert fragment_frame(data, "n0", 1, 1000) == [data]
        assert not is_fragment(data[:2] + data)  # arbitrary bytes stay non-fragments

    def test_every_fragment_within_budget_and_roundtrips(self):
        data = bytes(range(256)) * 40  # 10,240 B, non-uniform content
        frags = fragment_frame(data, "node-7", 42, 1000)
        assert len(frags) > 1
        assert all(len(f) <= 1000 for f in frags)
        parsed = [parse_fragment(f) for f in frags]
        assert all(p.origin == "node-7" and p.frame_id == 42 for p in parsed)
        assert [p.index for p in parsed] == list(range(len(frags)))
        assert all(p.count == len(frags) for p in parsed)
        assert b"".join(p.payload for p in parsed) == data

    def test_budget_too_small_for_header_raises(self):
        with pytest.raises(WireError):
            fragment_frame(b"x" * 100, "n0", 1, 4)

    def test_too_many_fragments_raises(self):
        # A budget that would need > 65535 slices must fail loudly.
        with pytest.raises(WireError):
            fragment_frame(b"x" * 4_000_000, "n0", 1, 60)

    def test_parse_rejects_truncated_and_bad_version(self):
        frag = frags_of()[0]
        assert parse_fragment(b"??not a fragment") is None
        with pytest.raises(WireError):
            parse_fragment(frag[:5])
        bad_version = frag[:2] + bytes([99]) + frag[3:]
        with pytest.raises(WireError):
            parse_fragment(bad_version)


# ----------------------------------------------------------------------
# Reassembler
# ----------------------------------------------------------------------
class TestReassembler:
    def test_out_of_order_reassembly(self):
        data = b"payload" * 1000
        frags = frags_of(data)
        r = Reassembler(clock=FakeClock())
        out = None
        for frag in reversed(frags):
            assert out is None
            out = r.add(frag)
        assert out is not None
        assert out.payload == data
        assert out.fragments == tuple(frags)
        assert r.pending == 0 and r.completed == 1

    def test_duplicate_fragments_ignored(self):
        data = b"d" * 3000
        frags = frags_of(data)
        r = Reassembler(clock=FakeClock())
        assert r.add(frags[0]) is None
        assert r.add(frags[0]) is None  # duplicate: counted, not applied
        out = None
        for frag in frags[1:]:
            out = r.add(frag) or out
        assert out is not None and out.payload == data
        assert r.duplicates == 1

    def test_interleaved_senders_complete_independently(self):
        data_a, data_b = b"a" * 4000, b"b" * 4000
        frags_a = frags_of(data_a, origin="alice", frame_id=5)
        frags_b = frags_of(data_b, origin="bob", frame_id=5)  # same frame id!
        r = Reassembler(clock=FakeClock())
        done = {}
        for fa, fb in zip(frags_a, frags_b):
            for frag in (fa, fb):
                out = r.add(frag)
                if out is not None:
                    done[parse_fragment(frag).origin] = out.payload
        assert done == {"alice": data_a, "bob": data_b}

    def test_missing_fragment_timeout(self):
        clock = FakeClock()
        drops = []
        r = Reassembler(clock=clock, timeout=2.0, on_drop=drops.append)
        frags = frags_of()
        r.add(frags[0])  # never send the rest
        clock.now += 5.0
        assert r.expire() == 1
        assert r.timeouts == 1 and r.pending == 0
        assert drops == ["timeout"]
        # The straggler then opens a fresh (doomed) buffer, not a crash.
        assert r.add(frags[1]) is None

    def test_lazy_expiry_inside_add(self):
        clock = FakeClock()
        r = Reassembler(clock=clock, timeout=2.0)
        r.add(frags_of(origin="stale")[0])
        clock.now += 5.0
        # Feeding any fragment expires stale buffers first.
        r.add(frags_of(origin="fresh")[0])
        assert r.timeouts == 1 and r.pending == 1

    def test_buffer_count_budget_evicts_stalest(self):
        clock = FakeClock()
        drops = []
        r = Reassembler(clock=clock, timeout=1e9, max_buffers=2, on_drop=drops.append)
        r.add(frags_of(origin="old")[0])
        clock.now += 1.0
        r.add(frags_of(origin="mid")[0])
        clock.now += 1.0
        r.add(frags_of(origin="new")[0])  # evicts "old"
        assert r.evictions == 1 and r.pending == 2
        assert drops == ["evicted"]
        # "old"'s tail fragment starts over; "mid"/"new" still complete.
        out = None
        for frag in frags_of(origin="mid")[1:]:
            out = r.add(frag) or out
        assert out is not None

    def test_byte_budget_evicts(self):
        clock = FakeClock()
        r = Reassembler(clock=clock, timeout=1e9, max_bytes=3000)
        r.add(frags_of(data=b"x" * 9000, origin="fat")[0])  # ~1000 B buffered
        clock.now += 1.0
        for frag in frags_of(data=b"y" * 9000, origin="other")[:3]:
            r.add(frag)
        assert r.evictions >= 1

    def test_count_mismatch_poisons_frame(self):
        r = Reassembler(clock=FakeClock())
        r.add(frags_of(data=b"x" * 5000)[0])
        forged = frags_of(data=b"x" * 9000)[1]  # same origin+id, other count
        with pytest.raises(WireError):
            r.add(forged)
        assert r.pending == 0  # the poisoned buffer is gone

    def test_non_fragment_bytes_raise(self):
        r = Reassembler(clock=FakeClock())
        with pytest.raises(WireError):
            r.add(b"RMnot-a-fragment")


# ----------------------------------------------------------------------
# Real loopback UDP: >64 KiB daemon-to-daemon
# ----------------------------------------------------------------------
def _free_ports(count):
    socks, ports = [], []
    try:
        for _ in range(count):
            s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            s.bind(("127.0.0.1", 0))
            socks.append(s)
            ports.append(s.getsockname()[1])
        return ports
    finally:
        for s in socks:
            s.close()


# A sync-snapshot-shaped payload: a few thousand NodeRecords, well over
# the 65,507 B UDP limit once encoded.
SNAPSHOT = {
    "kind": "sync_snapshot",
    "records": [
        NodeRecord(node_id=f"node-{i:05d}", incarnation=i,
                   services={"svc": f"range-{i}"}, attrs={})
        for i in range(3000)
    ],
}


def _send_snapshot_over_loopback(max_datagram):
    """Send SNAPSHOT from a to b; (the packet b received, b's receive buffer)."""
    pa, pb = _free_ports(2)
    spec = ClusterSpec(
        relay=RelaySpec(host="127.0.0.1", port=1),  # never contacted
        nodes={
            "a": NodeSpec(host="127.0.0.1", port=pa),
            "b": NodeSpec(host="127.0.0.1", port=pb),
        },
        max_datagram=max_datagram,
    )

    async def scenario():
        a = AsyncRuntime(spec, "a")
        b = AsyncRuntime(spec, "b")
        await a.start()
        await b.start()
        a.activate()
        b.activate()
        received = []
        b.bind("membership", received.append)
        try:
            assert a.send("b", "sync_resp", SNAPSHOT, size=70000) is True
            deadline = asyncio.get_running_loop().time() + 10.0
            while not received:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
            return received[0], b._transport.max_size
        finally:
            a.close()
            b.close()

    return asyncio.run(scenario())


def test_oversize_view_payload_over_real_loopback_udp():
    """A view snapshot far beyond one UDP datagram arrives intact."""
    pkt, _buffer = _send_snapshot_over_loopback(DEFAULT_MAX_DATAGRAM)
    assert pkt.kind == "sync_resp"
    assert pkt.payload["records"] == SNAPSHOT["records"]
    assert len(pkt.payload["records"]) == 3000


def test_datagrams_at_the_udp_ceiling_fit_the_receive_buffer():
    """Fragments of 65,507 B, the most IPv4 UDP carries, arrive whole."""
    assert len(fragment_frame(b"z" * 70000, "a", 1, 65507)[0]) == 65507
    pkt, buffer = _send_snapshot_over_loopback(65507)
    assert buffer == RECV_BUFFER
    assert pkt.payload["records"] == SNAPSHOT["records"]


def test_encoded_oversize_frame_actually_fragments():
    # Belt and braces for the loopback test above: the snapshot really
    # is bigger than one datagram, so the path exercised is fragmented.
    from repro.net.packet import Packet
    from repro.runtime.wire import encode_packet

    records = [
        NodeRecord(node_id=f"node-{i:05d}", incarnation=i,
                   services={"svc": f"range-{i}"}, attrs={})
        for i in range(3000)
    ]
    pkt = Packet(src="a", kind="sync_resp", payload={"records": records},
                 size=70000, dst="b")
    data = encode_packet(pkt, "membership")
    assert len(data) > 65507
    frags = fragment_frame(data, "a", 1, DEFAULT_MAX_DATAGRAM)
    assert len(frags) >= 2
