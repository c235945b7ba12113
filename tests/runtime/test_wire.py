"""The wire codec: round trips, canonical bytes, strict failure modes."""

import struct

import pytest

from repro.cluster.directory import NodeRecord
from repro.core.heartbeat import Heartbeat
from repro.core.updates import UpdateMessage, UpdateOp
from repro.net.packet import Packet
from repro.runtime.wire import (
    WIRE_VERSION,
    WireError,
    decode_packet,
    decode_value,
    encode_packet,
    encode_value,
)


def roundtrip(value):
    return decode_value(encode_value(value))


RECORD = NodeRecord(
    node_id="host-7",
    incarnation=3,
    services={"Retriever": frozenset({1, 2, 3}), "Index": frozenset()},
    attrs={"cpus": "4", "load": "0.25"},
)


class TestValueRoundTrips:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**62,
            -(2**62),
            1.5,
            -0.0,
            "",
            "héllo/δ",
            b"",
            b"\x00\xffraw",
            (),
            (1, "two", None),
            [],
            [1, [2, [3]]],
            {},
            {"k": 1, 2: "v", None: (1, 2)},
            frozenset(),
            frozenset({3, 1, 2}),
        ],
    )
    def test_scalars_and_containers(self, value):
        out = roundtrip(value)
        assert out == value
        assert type(out) is type(value)

    def test_node_record(self):
        out = roundtrip(RECORD)
        assert isinstance(out, NodeRecord)
        assert out == RECORD

    def test_heartbeat(self):
        hb = Heartbeat(
            record=RECORD,
            level=2,
            is_leader=True,
            suppressed=False,
            backup="host-9",
            update_seq=41,
        )
        out = roundtrip(hb)
        assert isinstance(out, Heartbeat)
        assert out == hb
        # The receive fast path keys on content equality after a trip.
        assert out.same_as(hb) and hb.same_as(out)
        assert out.record is not hb.record

    def test_update_message_with_piggyback(self):
        msg = UpdateMessage(
            uid=5,
            origin="host-1",
            sender="host-2",
            level=1,
            seq=9,
            ops=(UpdateOp("add", "host-7", 3, RECORD),),
            piggyback=(
                (8, 4, "host-3", (UpdateOp("remove", "host-4", 1),)),
                (7, 2, "host-1", (UpdateOp("leave", "host-5", 2),)),
            ),
        )
        out = roundtrip(msg)
        assert isinstance(out, UpdateMessage)
        assert out == msg
        # Piggyback entries keep their true (origin, uid) identities.
        assert [(o, u) for _s, u, o, _ops in out.piggyback] == [
            ("host-3", 4),
            ("host-1", 2),
        ]

    def test_frozenset_bytes_are_canonical(self):
        # Content-identical sets must serialize identically regardless of
        # construction order (content-keyed dedup must survive the wire).
        a = frozenset([1, 2, 3, 40, 500])
        b = frozenset([500, 40, 3, 2, 1])
        assert encode_value(a) == encode_value(b)

    def test_unencodable_type_raises(self):
        with pytest.raises(WireError):
            encode_value(object())

    def test_oversized_int_raises(self):
        with pytest.raises(WireError):
            encode_value(2**64)


class TestPacketFraming:
    def test_multicast_packet_roundtrip(self):
        pkt = Packet(
            src="n1",
            kind="heartbeat",
            payload=Heartbeat(record=RECORD, level=0, is_leader=False, suppressed=True),
            size=256,
            channel="239.255.0.2:10050/L0",
            ttl=1,
        )
        out, port = decode_packet(encode_packet(pkt))
        assert port is None
        assert (out.src, out.kind, out.channel, out.ttl, out.size) == (
            "n1",
            "heartbeat",
            "239.255.0.2:10050/L0",
            1,
            256,
        )
        assert out.dst is None
        assert out.payload == pkt.payload

    def test_unicast_packet_carries_port(self):
        pkt = Packet(
            src="n1",
            kind="sync_resp",
            payload={"snapshot": [], "seqs": {0: 5}},
            size=28,
            dst="n2",
        )
        out, port = decode_packet(encode_packet(pkt, "hmember"))
        assert port == "hmember"
        assert out.dst == "n2" and out.channel is None
        assert out.payload == {"snapshot": [], "seqs": {0: 5}}

    def test_truncated_frame_raises(self):
        data = encode_packet(
            Packet(src="a", kind="k", payload=(1, 2, 3), size=0, channel="c", ttl=1)
        )
        for cut in (0, 3, 7, len(data) // 2, len(data) - 1):
            with pytest.raises(WireError):
                decode_packet(data[:cut])

    def test_trailing_garbage_raises(self):
        data = encode_packet(
            Packet(src="a", kind="k", payload=None, size=0, channel="c", ttl=1)
        )
        with pytest.raises(WireError):
            decode_packet(data + b"\x00")

    def test_bad_magic_raises(self):
        data = encode_packet(
            Packet(src="a", kind="k", payload=None, size=0, channel="c", ttl=1)
        )
        with pytest.raises(WireError):
            decode_packet(b"XX" + data[2:])

    def test_version_mismatch_raises(self):
        data = bytearray(
            encode_packet(
                Packet(src="a", kind="k", payload=None, size=0, channel="c", ttl=1)
            )
        )
        data[2] = WIRE_VERSION + 1
        with pytest.raises(WireError):
            decode_packet(bytes(data))

    def test_corrupt_value_tag_raises(self):
        body = b"\x7f"  # not a known tag
        frame = struct.pack(">2sBI", b"RM", WIRE_VERSION, len(body)) + body
        with pytest.raises(WireError):
            decode_value(body)
        with pytest.raises(WireError):
            decode_packet(frame)
