"""Hostile and valid datagrams shared by the codec's robustness tests.

Not a test module.  ``test_wire_properties.py`` drives the mutation
primitives from Hypothesis; ``test_live_garbage.py`` sends the seeded
:func:`fuzz_corpus` at live sockets.  Both include the five concrete
frames that used to raise something other than ``WireError``.
"""

import random
import struct
from typing import Dict, List, Sequence, Tuple

from repro.cluster.directory import NodeRecord
from repro.core.heartbeat import Heartbeat
from repro.core.updates import UpdateMessage, UpdateOp
from repro.net.packet import Packet
from repro.runtime.wire import WIRE_VERSION, encode_packet, encode_value, fragment_frame

HEADER_SIZE = 7  # magic (2) + version (1) + body length (u32)

#: Every tag byte of the value encoding: a mutation that lands one of
#: these on a tag position changes the *shape* of the value tree.
TAGS = b"NTFifsbtldSRHOU"


def frame(body: bytes) -> bytes:
    """Wrap ``body`` in a valid frame header."""
    return struct.pack(">2sBI", b"RM", WIRE_VERSION, len(body)) + body


def refit(datagram: bytes) -> bytes:
    """Rewrite the header's body length to match the datagram.

    A mutation that changes a frame's size is otherwise rejected by the
    length check before it reaches the value decoder.
    """
    if len(datagram) < HEADER_SIZE:
        return datagram
    return datagram[:3] + struct.pack(">I", len(datagram) - HEADER_SIZE) + datagram[HEADER_SIZE:]


def _str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack(">I", len(raw)) + raw


def routing(
    *, src: str = "a", kind: str = "k", dst: bytes = b"N", channel: bytes = b"s" + _str("c"),
    ttl: int = 1, size: int = 0, port: bytes = b"N",
) -> bytes:
    """The routing fields of a frame body, up to where the payload starts."""
    return (
        _str(src) + _str(kind) + dst + channel
        + struct.pack(">q", ttl) + struct.pack(">q", size) + port
    )


def record(node_id: str, incarnation: int = 1) -> NodeRecord:
    return NodeRecord(
        node_id=node_id,
        incarnation=incarnation,
        services={"Retriever": frozenset({1, 2, 3}), "Index": frozenset()},
        attrs={"cpus": "4", "load": "0.25"},
    )


def heartbeat_frame(
    src: str = "n1", channel: str = "239.255.0.2:10050/L0", *, update_seq: int = 0,
    is_leader: bool = False,
) -> bytes:
    """One heartbeat datagram exactly as ``AsyncRuntime.publish`` frames it."""
    hb = Heartbeat(
        record=record(src), level=0, is_leader=is_leader, suppressed=not is_leader,
        update_seq=update_seq,
    )
    return encode_packet(
        Packet(src=src, kind="heartbeat", payload=hb, size=256, channel=channel, ttl=1)
    )


def update_frame(src: str = "n1", channel: str = "239.255.0.2:10050/L0") -> bytes:
    msg = UpdateMessage(
        uid=5, origin="n3", sender=src, level=0, seq=9,
        ops=(UpdateOp("add", "n7", 3, record("n7", 3)),),
        piggyback=(
            (8, 4, "n3", (UpdateOp("remove", "n4", 1),)),
            (7, 2, "n1", (UpdateOp("add", "n5", 2, record("n5", 2)),)),
        ),
    )
    return encode_packet(
        Packet(src=src, kind="update", payload=msg, size=512, channel=channel, ttl=1)
    )


def sync_frame(src: str = "n1", dst: str = "n2") -> bytes:
    payload = {"snapshot": [record(f"n{i}") for i in range(4)], "seqs": {0: 5, 1: 2}}
    return encode_packet(
        Packet(src=src, kind="sync_resp", payload=payload, size=1024, dst=dst), "hmember"
    )


def relay_sub_frame(node: str = "n1", channels: Sequence[str] = ("c1", "c2")) -> bytes:
    payload = {"node": node, "segment": "s0", "channels": list(channels)}
    return encode_packet(
        Packet(src=node, kind="relay_sub", payload=payload, size=0, dst="__relay__")
    )


#: What a hostile relay control frame lists as "channels".
JUNK_CHANNELS = [["nested"], {"d": 1}, 7, None, ("t",)]


def hostile_control_frames() -> List[bytes]:
    """Well-formed relay control frames whose list elements are not channel names."""
    junk = JUNK_CHANNELS + ["fuzz/L0"]
    return [
        encode_packet(
            Packet(
                src="ghost", kind=kind, size=0, dst="__relay__",
                payload={"node": "ghost", "segment": "s0", "channels": junk},
            )
        )
        for kind in ("relay_unsub", "relay_sub")
    ]


def templates() -> Dict[str, bytes]:
    """One valid frame of every shape the daemons and the relay exchange."""
    return {
        "heartbeat": heartbeat_frame(),
        "update": update_frame(),
        "sync": sync_frame(),
        "relay_sub": relay_sub_frame(),
    }


def regression_frames() -> Dict[str, bytes]:
    """The five frames that raised something other than ``WireError``."""
    u32 = struct.Struct(">I").pack
    return {
        # TypeError: unhashable type: 'dict'
        "dict_key_is_a_dict": frame(routing() + b"d" + u32(1) + b"d" + u32(0) + b"N"),
        # TypeError: unhashable type: 'list'
        "frozenset_holds_a_list": frame(routing() + b"S" + u32(1) + b"l" + u32(0)),
        # RecursionError
        "list_nested_5000_deep": frame(routing() + (b"l" + u32(1)) * 5000 + b"N"),
        # ValueError: packet size must be non-negative
        "negative_size": frame(routing(size=-1) + b"N"),
        # ValueError: exactly one of dst (unicast) or channel (multicast) required
        "dst_and_channel_both_set": frame(routing(dst=b"s" + _str("d")) + b"N"),
    }


def fragments_of(
    datagram: bytes, origin: str = "n1", frame_id: int = 1, size: int = 64
) -> List[bytes]:
    """``datagram`` split into well-formed fragment datagrams of ``size`` bytes."""
    return fragment_frame(datagram, origin, frame_id, size)


Edit = Tuple[int, int]  # (position, replacement byte); position wraps


def mutate(datagram: bytes, edits: Sequence[Edit], cut: int = 0, grow: bytes = b"") -> bytes:
    """Overwrite bytes, drop ``cut`` trailing bytes, append ``grow``."""
    buf = bytearray(datagram)
    for pos, value in edits:
        if buf:
            buf[pos % len(buf)] = value
    if cut:
        del buf[max(0, len(buf) - cut):]
    return bytes(buf) + grow


def fuzz_corpus(seed: int, count: int) -> List[bytes]:
    """A seeded mix of hostile datagrams, at least ``count`` of them.

    Random bytes (bare, and behind the frame and fragment magics),
    mutated valid frames (half with the length refitted so the mutation
    reaches the value decoder), forged heartbeats from sources that do
    not exist, the five regression frames, relay control frames listing
    unhashable "channels", and truncated or never-completing fragments.
    Valid frames are addressed to channels and nodes no live daemon
    uses, so one that survives its mutation is decoded and then dropped
    by dispatch instead of becoming protocol input.
    """
    rng = random.Random(seed)
    valid = [
        heartbeat_frame("ghost", "fuzz/L0"),
        update_frame("ghost", "fuzz/L0"),
        sync_frame("ghost", "nobody"),
        relay_sub_frame("ghost", ("fuzz/L0",)),
    ]
    out: List[bytes] = list(regression_frames().values()) + hostile_control_frames()
    while len(out) < count:
        pick = rng.randrange(7)
        if pick == 0:
            out.append(rng.randbytes(rng.randrange(0, 96)))
        elif pick == 1:
            out.append(frame(rng.randbytes(rng.randrange(0, 96))))
        elif pick == 2:
            out.append(b"RG" + rng.randbytes(rng.randrange(0, 48)))
        elif pick == 3:
            # A forged source: decodes fine, and must not grow the memo.
            out.append(heartbeat_frame(f"forged-{rng.randrange(1 << 30)}", "fuzz/L0"))
        elif pick == 4:
            # Slice 0 of 3 of a frame whose other slices never come.
            frags = fragments_of(valid[0], f"ghost-{len(out)}", len(out), 128)
            out.append(frags[0])
            out.append(frags[1][: rng.randrange(1, 20)])  # cut inside its header
        else:
            base = rng.choice(valid)
            edits = [
                (
                    rng.randrange(len(base)),
                    rng.choice(TAGS) if rng.random() < 0.5 else rng.randrange(256),
                )
                for _ in range(rng.randrange(1, 4))
            ]
            mutated = mutate(
                base, edits, cut=rng.choice((0, 0, 1, 9)), grow=rng.randbytes(rng.choice((0, 0, 3)))
            )
            out.append(refit(mutated) if rng.random() < 0.5 else mutated)
    return out


def value_bytes() -> Dict[str, bytes]:
    """Bare encoded values (no frame header) for ``decode_value`` mutation."""
    return {
        "record": encode_value(record("n1")),
        "nested": encode_value({"k": [1, (2.5, None), frozenset({"a", "b"})], 7: b"\x00raw"}),
    }
