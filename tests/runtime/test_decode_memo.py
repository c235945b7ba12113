"""The per-socket heartbeat decode memo (unit tests, no sockets).

What ``repro.runtime.wire.DecodeMemo`` promises its two owners
(``AsyncRuntime`` and ``ChannelRelay``): a repeat is the *same* decode,
one slot per ``(src, channel)``, heartbeats only, nothing retained from
a datagram that failed the strict decode, hard caps that forged sources
cannot move — and no correctness path that depends on a hit.
"""

import pytest

from repro.core import HierarchicalNode
from repro.core.config import HierarchicalConfig
from repro.core.heartbeat import Heartbeat
from repro.net.packet import Packet
from repro.obs.registry import MetricsRegistry
from repro.obs.wiring import Instruments
from repro.runtime import wire
from repro.runtime.wire import (
    MEMO_MAX_BYTES,
    MEMO_MAX_ENTRIES,
    DecodeMemo,
    WireError,
    decode_packet,
    encode_packet,
)
from tests.core.roles.conftest import FakeRuntime
from tests.runtime import wire_corpus as corpus

CHANNEL = HierarchicalConfig().channel(0)


def fresh(data: bytes) -> bytes:
    """An equal datagram in a different object, as a socket would hand over."""
    return bytes(bytearray(data))


class TestHit:
    def test_repeat_returns_the_identical_objects(self):
        memo = DecodeMemo()
        data = corpus.heartbeat_frame("n1", CHANNEL)
        assert memo.get(data) is None
        first = memo.decode(data)
        again = memo.get(fresh(data))
        assert again is first
        assert again[0].payload is first[0].payload
        assert isinstance(again[0].payload, Heartbeat)

    def test_hit_is_exactly_what_the_strict_decoder_returns(self):
        memo = DecodeMemo()
        for data in (
            corpus.heartbeat_frame("n1", CHANNEL),
            corpus.heartbeat_frame("n2", CHANNEL, update_seq=7, is_leader=True),
        ):
            memo.decode(data)
            pkt, port = memo.get(data)
            cold, cold_port = decode_packet(data)
            assert port == cold_port
            assert (pkt.src, pkt.kind, pkt.payload, pkt.size, pkt.dst, pkt.channel, pkt.ttl) == (
                cold.src, cold.kind, cold.payload, cold.size, cold.dst, cold.channel, cold.ttl,
            )

    def test_the_memo_holds_a_copy_not_the_socket_buffer(self):
        # Bytes off a socket are a 256-KiB buffer shrunk in place;
        # keeping that object alive fragments the heap (RSS +6 % measured).
        memo = DecodeMemo()
        data = corpus.heartbeat_frame("n1", CHANNEL)
        memo.decode(data)
        (key,) = memo._decoded
        assert key == data and key is not data


class TestOneSlotPerSender:
    def test_changed_heartbeat_replaces(self):
        memo = DecodeMemo()
        old = corpus.heartbeat_frame("n1", CHANNEL, update_seq=1)
        new = corpus.heartbeat_frame("n1", CHANNEL, update_seq=2)
        memo.decode(old)
        memo.decode(new)
        assert len(memo) == 1
        assert memo.nbytes == len(new)
        assert memo.get(old) is None
        assert memo.get(new)[0].payload.update_seq == 2

    def test_channels_and_sources_get_their_own_slots(self):
        memo = DecodeMemo()
        frames = [
            corpus.heartbeat_frame("n1", CHANNEL),
            corpus.heartbeat_frame("n1", "other/L1"),
            corpus.heartbeat_frame("n2", CHANNEL),
        ]
        for data in frames:
            memo.decode(data)
        assert len(memo) == 3
        assert memo.nbytes == sum(map(len, frames))
        assert all(memo.get(data) is not None for data in frames)

    def test_decoding_a_remembered_datagram_again_is_harmless(self):
        memo = DecodeMemo()
        data = corpus.heartbeat_frame("n1", CHANNEL)
        memo.decode(data)
        memo.decode(fresh(data))  # a caller that skipped get()
        assert len(memo) == 1 and memo.nbytes == len(data)


class TestWhatIsNeverRetained:
    @pytest.mark.parametrize("name", ["update", "sync", "relay_sub"])
    def test_only_heartbeats(self, name):
        memo = DecodeMemo()
        data = corpus.templates()[name]
        pkt, _port = memo.decode(data)
        assert not isinstance(pkt.payload, Heartbeat)
        assert len(memo) == 0 and memo.nbytes == 0
        assert memo.get(data) is None

    def test_unicast_heartbeat_payload_has_no_channel_slot(self):
        hb = decode_packet(corpus.heartbeat_frame())[0].payload
        data = encode_packet(Packet(src="n1", kind="heartbeat", payload=hb, size=1, dst="n2"), "p")
        memo = DecodeMemo()
        memo.decode(data)
        assert len(memo) == 0

    @pytest.mark.parametrize("name", sorted(corpus.regression_frames()))
    def test_failed_decode_inserts_nothing(self, name):
        memo = DecodeMemo()
        keep = corpus.heartbeat_frame("n1", CHANNEL)
        memo.decode(keep)
        with pytest.raises(WireError):
            memo.decode(corpus.regression_frames()[name])
        assert len(memo) == 1 and memo.nbytes == len(keep)

    def test_damaged_heartbeat_does_not_touch_its_senders_slot(self):
        memo = DecodeMemo()
        good = corpus.heartbeat_frame("n1", CHANNEL)
        first = memo.decode(good)
        with pytest.raises(WireError):
            memo.decode(good[:-1])
        with pytest.raises(WireError):
            memo.decode(good + b"\x00")
        assert memo.get(good) is first


class TestCaps:
    def test_forged_sources_cannot_grow_it(self):
        memo = DecodeMemo()
        legit = corpus.heartbeat_frame("n1", CHANNEL)
        memo.decode(legit)
        for i in range(10_000):
            memo.decode(corpus.heartbeat_frame(f"forged-{i}", CHANNEL))
            assert len(memo) <= MEMO_MAX_ENTRIES
            assert memo.nbytes <= MEMO_MAX_BYTES
        assert len(memo) == MEMO_MAX_ENTRIES
        assert len(memo._decoded) == len(memo._datagram) == MEMO_MAX_ENTRIES
        assert memo.nbytes == sum(map(len, memo._decoded))
        # Oldest first: the legitimate sender went long ago, and the
        # cost is one cold decode at its next heartbeat.
        assert memo.get(legit) is None
        assert memo.decode(legit)[0].src == "n1"
        assert memo.get(legit) is not None

    def test_byte_cap_evicts_before_the_entry_cap(self, monkeypatch):
        monkeypatch.setattr(wire, "MEMO_MAX_BYTES", 4 * 300)
        memo = DecodeMemo()
        frames = [corpus.heartbeat_frame(f"n{i}", CHANNEL) for i in range(10)]
        for data in frames:
            memo.decode(data)
            assert memo.nbytes <= 4 * 300
        assert 0 < len(memo) < 10
        assert memo.get(frames[0]) is None and memo.get(frames[-1]) is not None

    def test_a_heartbeat_bigger_than_the_byte_cap_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(wire, "MEMO_MAX_BYTES", 100)
        memo = DecodeMemo()
        pkt, _ = memo.decode(corpus.heartbeat_frame("n1", CHANNEL))
        assert pkt.src == "n1"
        assert len(memo) == 0 and memo.nbytes == 0 and not memo._decoded

    def test_memos_share_nothing(self):
        a, b = DecodeMemo(), DecodeMemo()
        data = corpus.heartbeat_frame("n1", CHANNEL)
        a.decode(data)
        assert b.get(data) is None and len(b) == 0


class CountingRuntime(FakeRuntime):
    """The role tests' fake runtime, with real instruments to read."""

    def __init__(self, node_id: str) -> None:
        super().__init__(node_id)
        self._instruments = Instruments(MetricsRegistry())

    @property
    def obs(self) -> Instruments:
        return self._instruments


class TestNoCorrectnessPathNeedsAHit:
    def test_after_eviction_the_receiver_still_takes_the_no_change_path(self):
        runtime = CountingRuntime("n0")
        node = HierarchicalNode(None, "n0", config=HierarchicalConfig(), runtime=runtime)
        node.start()
        handler = runtime.subscriptions[CHANNEL]
        obs = runtime.obs
        memo = DecodeMemo()
        data = corpus.heartbeat_frame("n1", CHANNEL)

        # Cold: the full absorb.
        handler(memo.decode(data)[0])
        assert (obs.hb_rx.get(), obs.hb_rx_fast.get()) == (1, 0)
        assert node.knows("n1")
        last_hb = node._ctx.groups[0].peers["n1"].last_hb

        # Repeat: a hit hands back the same Heartbeat, so the receiver's
        # identity arm (`hb is peer.last_hb`) matches.
        hit = memo.get(fresh(data))[0]
        assert hit.payload is last_hb
        handler(hit)
        assert (obs.hb_rx.get(), obs.hb_rx_fast.get()) == (2, 1)

        # Forged sources push the sender's slot out ...
        for i in range(MEMO_MAX_ENTRIES):
            memo.decode(corpus.heartbeat_frame(f"forged-{i}", "elsewhere/L0"))
        assert memo.get(data) is None

        # ... and the next receive is a cold decode: a new, equal
        # Heartbeat.  `same_as` still recognises it as no change.
        cold = memo.decode(fresh(data))[0]
        assert cold.payload is not last_hb and cold.payload.same_as(last_hb)
        handler(cold)
        assert (obs.hb_rx.get(), obs.hb_rx_fast.get()) == (3, 2)
        node.stop()
