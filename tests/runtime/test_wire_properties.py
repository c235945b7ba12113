"""Property tests for the wire codec (hypothesis).

Bytes off a socket are untrusted.  The contract pinned here:

* ``decode_packet``, ``decode_value`` and ``parse_fragment`` raise
  **only** ``WireError`` — on arbitrary bytes and on valid frames
  (heartbeat, update with piggyback, sync snapshot, relay control) with
  bytes overwritten, cut or appended.  Anything else would slip past the
  daemon's and the relay's ``except WireError`` uncounted;
* ``decode(encode(x)) == x`` for generated payload trees, and the bytes
  are canonical (re-encoding the decode reproduces them);
* a ``Reassembler`` fed adversarial fragment streams (forged origins,
  count changes, duplicates, frames that never complete) stays inside
  ``max_buffers`` / ``max_bytes`` and raises only ``WireError``.

The five frames that used to raise ``TypeError``, ``ValueError`` and
``RecursionError`` are named regression cases at the top.
"""

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.directory import NodeRecord
from repro.core.heartbeat import Heartbeat
from repro.core.updates import UpdateMessage, UpdateOp
from repro.net.packet import Packet
from repro.runtime.wire import (
    MAX_DEPTH,
    WIRE_VERSION,
    Reassembler,
    WireError,
    decode_packet,
    decode_value,
    encode_packet,
    encode_value,
    fragment_frame,
    parse_fragment,
)
from tests.runtime import wire_corpus as corpus

#: One profile for every property in this module: derandomised so tier-1
#: is reproducible, no deadline because the box drifts 1.5x in speed.
SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)

TEMPLATES = corpus.templates()
REGRESSIONS = corpus.regression_frames()


def only_wire_error(fn, data):
    """Run ``fn(data)``; any exception other than ``WireError`` propagates."""
    try:
        return fn(data)
    except WireError:
        return None


# ----------------------------------------------------------------------
# The five frames from the field
# ----------------------------------------------------------------------
class TestRegressionFrames:
    def test_dict_key_that_is_a_dict(self):
        # Was: TypeError: unhashable type: 'dict'
        with pytest.raises(WireError, match="unhashable"):
            decode_packet(REGRESSIONS["dict_key_is_a_dict"])

    def test_frozenset_holding_a_list(self):
        # Was: TypeError: unhashable type: 'list'
        with pytest.raises(WireError, match="unhashable"):
            decode_packet(REGRESSIONS["frozenset_holds_a_list"])

    def test_list_nested_5000_deep(self):
        # Was: RecursionError
        with pytest.raises(WireError, match="nested"):
            decode_packet(REGRESSIONS["list_nested_5000_deep"])

    def test_negative_size(self):
        # Was: ValueError("packet size must be non-negative"), not a WireError
        with pytest.raises(WireError, match="non-negative"):
            decode_packet(REGRESSIONS["negative_size"])

    def test_dst_and_channel_both_set(self):
        # Was: ValueError("exactly one of dst ... or channel ..."), not a WireError
        with pytest.raises(WireError, match="exactly one"):
            decode_packet(REGRESSIONS["dst_and_channel_both_set"])

    def test_neither_dst_nor_channel(self):
        with pytest.raises(WireError, match="exactly one"):
            decode_packet(corpus.frame(corpus.routing(channel=b"N") + b"N"))

    def test_unhashable_record_as_dict_key(self):
        # A NodeRecord hashes its (dict) fields: unhashable by content.
        body = b"d" + struct.pack(">I", 1) + encode_value(corpus.record("n1")) + b"N"
        with pytest.raises(WireError, match="unhashable"):
            decode_value(body)

    def test_depth_cap_sits_well_above_real_traffic(self):
        # At the cap decodes, one past it does not; the deepest template
        # (an update whose piggyback carries a record) is nowhere near.
        def nested(depth):
            return (b"l" + struct.pack(">I", 1)) * depth + b"N"

        assert decode_value(nested(MAX_DEPTH)) is not None
        with pytest.raises(WireError, match="nested"):
            decode_value(nested(MAX_DEPTH + 1))
        for data in TEMPLATES.values():
            decode_packet(data)


# ----------------------------------------------------------------------
# A frame's kind decides its payload type
# ----------------------------------------------------------------------
CONFUSED = corpus.type_confused_frames()


class TestKindDecidesPayload:
    @pytest.mark.parametrize("name", sorted(CONFUSED))
    def test_wrong_payload_for_the_kind_is_a_wire_error(self, name):
        # Was: AttributeError / KeyError / TypeError inside a role handler.
        with pytest.raises(WireError, match="wrong type"):
            decode_packet(CONFUSED[name])

    def test_every_shape_the_roles_send_decodes(self):
        frames = [
            corpus.heartbeat_frame(),
            corpus.update_frame(),
            corpus.sync_frame(),
            corpus.sync_req_frame(),
        ]
        assert [decode_packet(data)[0].kind for data in frames] == [
            "heartbeat", "update", "sync_resp", "sync_req",
        ]

    def test_other_kinds_are_unconstrained(self):
        pkt = Packet(src="a", kind="probe", payload=None, size=0, dst="b")
        assert decode_packet(encode_packet(pkt, "p"))[0].payload is None


# ----------------------------------------------------------------------
# Only WireError leaves the decoders
# ----------------------------------------------------------------------
#: A replacement byte: half the time a tag (changes the tree's shape).
patch_bytes = st.one_of(st.sampled_from(list(corpus.TAGS)), st.integers(0, 255))
edit_lists = st.lists(st.tuples(st.integers(0, 1 << 16), patch_bytes), min_size=1, max_size=4)


@st.composite
def mutated(draw, sources):
    """A valid datagram with bytes overwritten, cut or appended."""
    base = draw(st.sampled_from(sources))
    data = corpus.mutate(
        base,
        draw(edit_lists),
        cut=draw(st.sampled_from([0, 0, 1, 4, 9])),
        grow=draw(st.binary(max_size=4)),
    )
    # Half the time put the body length right again, so the damage is
    # seen by the value decoder and not only by the length check.
    return corpus.refit(data) if draw(st.booleans()) else data


class TestOnlyWireError:
    @given(st.binary(max_size=256))
    @SETTINGS
    def test_arbitrary_bytes(self, data):
        only_wire_error(decode_packet, data)
        only_wire_error(decode_value, data)
        only_wire_error(parse_fragment, data)
        only_wire_error(parse_fragment, b"RG" + data)

    @given(st.binary(max_size=256))
    @SETTINGS
    def test_arbitrary_body_behind_a_valid_header(self, body):
        only_wire_error(decode_packet, corpus.frame(body))

    @given(st.binary(max_size=128))
    @SETTINGS
    def test_arbitrary_payload_behind_valid_routing(self, tail):
        only_wire_error(decode_packet, corpus.frame(corpus.routing() + tail))

    @given(mutated(sorted(TEMPLATES.values())))
    @SETTINGS
    def test_mutated_valid_frames(self, data):
        only_wire_error(decode_packet, data)

    @given(mutated(sorted(REGRESSIONS.values())))
    @SETTINGS
    def test_mutated_regression_frames(self, data):
        only_wire_error(decode_packet, data)

    @given(mutated(sorted(corpus.value_bytes().values())))
    @SETTINGS
    def test_mutated_values(self, data):
        only_wire_error(decode_value, data)

    @given(mutated(corpus.fragments_of(TEMPLATES["update"])))
    @SETTINGS
    def test_mutated_fragments(self, data):
        only_wire_error(parse_fragment, data)

    @given(st.sampled_from(sorted(TEMPLATES)), st.integers(0, 1 << 16))
    @SETTINGS
    def test_every_truncation_is_rejected(self, name, cut):
        data = TEMPLATES[name]
        with pytest.raises(WireError):
            decode_packet(data[: cut % len(data)])


# ----------------------------------------------------------------------
# decode(encode(x)) == x
# ----------------------------------------------------------------------
i64 = st.integers(-(1 << 63), (1 << 63) - 1)
scalars = st.one_of(
    st.none(), st.booleans(), i64, st.floats(allow_nan=False), st.text(max_size=12),
    st.binary(max_size=12),
)
hashables = st.recursive(
    scalars, lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=3), max_leaves=6
)
node_ids = st.text(min_size=1, max_size=8)
records = st.builds(
    NodeRecord,
    node_id=node_ids,
    incarnation=i64,
    services=st.dictionaries(
        st.text(max_size=8), st.frozensets(st.integers(0, 99), max_size=4), max_size=3
    ),
    attrs=st.dictionaries(st.text(max_size=8), st.text(max_size=8), max_size=3),
)
heartbeats = st.builds(
    Heartbeat,
    record=records,
    level=st.integers(0, 7),
    is_leader=st.booleans(),
    suppressed=st.booleans(),
    backup=st.none() | node_ids,
    update_seq=st.integers(0, 1 << 40),
)
update_ops = st.builds(
    UpdateOp,
    op=st.sampled_from(["add", "remove", "leave"]),
    node_id=node_ids,
    incarnation=i64,
    record=st.none() | records,
)
update_messages = st.builds(
    UpdateMessage,
    uid=i64,
    origin=node_ids,
    sender=node_ids,
    level=st.integers(0, 7),
    seq=i64,
    ops=st.lists(update_ops, max_size=3).map(tuple),
    piggyback=st.lists(
        st.tuples(i64, i64, node_ids, st.lists(update_ops, max_size=2).map(tuple)), max_size=2
    ).map(tuple),
)
payload_trees = st.recursive(
    st.one_of(scalars, records, heartbeats, update_messages),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(hashables, inner, max_size=3),
    ),
    max_leaves=8,
)


class TestRoundTrip:
    @given(payload_trees)
    @SETTINGS
    def test_values(self, value):
        data = encode_value(value)
        out = decode_value(data)
        assert out == value
        assert type(out) is type(value)
        # Canonical: content-equal payloads mean identical datagrams,
        # which is what lets a receiver recognise a repeat by its bytes.
        assert encode_value(out) == data

    @given(hashables)
    @SETTINGS
    def test_hashable_keys_and_elements(self, key):
        assert decode_value(encode_value({key: frozenset({key})})) == {key: frozenset({key})}

    @given(
        src=node_ids,
        kind=st.text(max_size=10),
        payload=payload_trees,
        size=st.integers(0, 1 << 32),
        ttl=st.integers(0, 255),
        to=st.tuples(st.booleans(), st.text(max_size=16)),
        port=st.none() | st.text(max_size=8),
    )
    @SETTINGS
    def test_packets(self, src, kind, payload, size, ttl, to, port):
        unicast, name = to
        pkt = Packet(
            src=src, kind=kind, payload=payload, size=size, ttl=ttl,
            dst=name if unicast else None, channel=None if unicast else name,
        )
        data = encode_packet(pkt, port)
        out, out_port = decode_packet(data)
        assert out_port == port
        assert (out.src, out.kind, out.payload, out.size, out.dst, out.channel, out.ttl) == (
            pkt.src, pkt.kind, pkt.payload, pkt.size, pkt.dst, pkt.channel, pkt.ttl,
        )
        assert encode_packet(out, out_port) == data

    def test_wire_format_is_still_version_1(self):
        # A changed byte in any of these frames is a wire-format change:
        # bump WIRE_VERSION and re-pin, never one without the other.
        assert WIRE_VERSION == 1
        digest = hashlib.sha256()
        for name in sorted(TEMPLATES):
            digest.update(TEMPLATES[name])
        assert digest.hexdigest() == (
            "a03ff8a544206816628c6c56c81e78f9c78cee7aaaa0aa14598bd1bcfe301ab1"
        )


# ----------------------------------------------------------------------
# Reassembler budgets under adversarial fragment streams
# ----------------------------------------------------------------------
MAX_BUFFERS, MAX_BYTES, TIMEOUT = 4, 600, 5.0


def raw_fragment(origin: bytes, frame_id: int, index: int, count: int, payload: bytes) -> bytes:
    """A fragment datagram with *any* header values, valid or not."""
    head = struct.pack(">2sBIHHH", b"RG", WIRE_VERSION, frame_id, index, count, len(origin))
    return head + origin + payload


#: Few origins and frame ids, so streams collide: duplicates, count
#: changes mid-frame and interleaved senders all come up.
hostile_fragments = st.builds(
    raw_fragment,
    origin=st.sampled_from([b"a", b"b", b"forged-origin", b"\xff\xfe"]),
    frame_id=st.integers(0, 5),
    index=st.integers(0, 6),
    count=st.integers(0, 6),
    payload=st.binary(max_size=300),
)
fragment_streams = st.lists(
    st.tuples(st.one_of(hostile_fragments, mutated(corpus.fragments_of(TEMPLATES["sync"]))),
              st.sampled_from([0.0, 0.0, 0.1, 3.0, 6.0])),
    max_size=40,
)


class TestReassemblerBudgets:
    @given(fragment_streams)
    @SETTINGS
    def test_budgets_hold_and_only_wire_error(self, stream):
        now = [0.0]
        drops = []
        reasm = Reassembler(
            clock=lambda: now[0], timeout=TIMEOUT, max_buffers=MAX_BUFFERS,
            max_bytes=MAX_BYTES, on_drop=drops.append,
        )
        for data, wait in stream:
            now[0] += wait
            only_wire_error(reasm.add, data)
            assert reasm.pending <= MAX_BUFFERS
            assert reasm._bytes <= MAX_BYTES
            # The running total is the truth, not a drifting estimate.
            assert reasm._bytes == sum(buf.size for buf in reasm._buffers.values())
        assert len(drops) == reasm.timeouts + reasm.evictions
        now[0] += TIMEOUT + 1.0
        reasm.expire()
        assert reasm.pending == 0 and reasm._bytes == 0

    @given(
        data=st.binary(min_size=200, max_size=2000),
        chunk=st.integers(40, 400),
        order=st.randoms(use_true_random=False),
        dupes=st.integers(0, 3),
    )
    @SETTINGS
    def test_any_arrival_order_with_duplicates_reassembles(self, data, chunk, order, dupes):
        frags = fragment_frame(data, "origin", 7, chunk)
        if len(frags) == 1:
            return  # fitted in one datagram: nothing to reassemble
        arrivals = frags + frags[:dupes]
        order.shuffle(arrivals)
        reasm = Reassembler(clock=lambda: 0.0)
        frames = [f for f in map(reasm.add, arrivals) if f is not None]
        # (Duplicates that land after completion open a fresh buffer, and
        # a whole second set completes a second time: both are fine.)
        assert frames and all(f.payload == data for f in frames)
        assert frames[0].fragments == tuple(frags)
