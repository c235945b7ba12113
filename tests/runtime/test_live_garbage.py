"""Live garbage: a converging cluster under a hail of hostile datagrams.

Three real daemons and the channel relay form a cluster on loopback UDP
while a fourth socket sends each of them the seeded fuzz corpus of
``wire_corpus`` — random bytes, mutated valid frames, forged heartbeats,
the five frames that used to escape as ``TypeError`` / ``ValueError`` /
``RecursionError``, hostile relay control lists, truncated and
never-completing fragments.  The robustness claim, as invariants:

* nothing reaches the event loop's exception handler;
* ``wire_errors`` (daemons and relay) equals the number of datagrams
  that arrived and that the strict decoder rejects — none crashed a
  handler, none was dropped uncounted;
* the decode memos stay under their caps while forged sources churn them;
* all three views complete, and stay complete.
"""

import asyncio
import socket

import pytest

from repro.core import HierarchicalNode
from repro.core.config import HierarchicalConfig
from repro.net.packet import Packet
from repro.runtime import wire
from repro.runtime.anet import AsyncRuntime, ClusterSpec, NodeSpec, RelaySpec
from repro.runtime.relay import ChannelRelay, serve
from repro.runtime.wire import Reassembler, WireError, decode_packet, encode_packet, is_fragment
from tests.runtime import wire_corpus as corpus
from tests.runtime.test_relay_failover import free_ports, wait_for

CONFIG = HierarchicalConfig(heartbeat_period=0.05, election_delay=0.25, max_ttl=3)
#: Small enough that the corpus's forged heartbeats overflow it many
#: times over, evicting the real peers' slots while the cluster forms.
MEMO_CAP = 32
CORPUS = corpus.fuzz_corpus(seed=20, count=1500)


def rejected(datagrams):
    """How many of ``datagrams`` the strict decoder rejects, in arrival order."""
    reasm = Reassembler(clock=lambda: 0.0)
    count = 0
    for data in datagrams:
        try:
            if is_fragment(data):
                frame = reasm.add(data)
                if frame is None:
                    continue
                data = frame.payload
            decode_packet(data)
        except WireError:
            count += 1
    return count


def test_corpus_is_mostly_but_not_only_garbage():
    # The live test below means little if everything is rejected at the
    # first byte, or if nothing is.
    assert len(CORPUS) >= 1500
    bad = rejected(CORPUS)
    assert bad > len(CORPUS) // 3
    assert len(CORPUS) - bad > MEMO_CAP * 4  # survivors: mostly forged heartbeats


def test_cluster_converges_under_garbage(monkeypatch):
    monkeypatch.setattr(wire, "MEMO_MAX_ENTRIES", MEMO_CAP)
    relay_port, *ports = free_ports(4)
    spec = ClusterSpec(
        relay=RelaySpec(host="127.0.0.1", port=relay_port),
        nodes={
            "a": NodeSpec(host="127.0.0.1", port=ports[0], segment="s0"),
            "b": NodeSpec(host="127.0.0.1", port=ports[1], segment="s0"),
            "c": NodeSpec(host="127.0.0.1", port=ports[2], segment="s1"),
        },
    )
    fuzz = frozenset(CORPUS)
    everyone = ["a", "b", "c"]

    async def scenario():
        loop = asyncio.get_running_loop()
        loop_errors = []
        loop.set_exception_handler(lambda _loop, context: loop_errors.append(context))
        relay = await serve(spec, "127.0.0.1", relay_port)
        runtimes, nodes = {}, {}
        for node_id in spec.nodes:
            rt = AsyncRuntime(spec, node_id)
            await rt.start()
            node = HierarchicalNode(None, node_id, config=CONFIG, runtime=rt)
            node.start()
            runtimes[node_id], nodes[node_id] = rt, node

        # Tap every socket owner: which corpus datagrams really arrived
        # (loopback may drop under a burst), and the memo's size at each.
        arrived = {name: [] for name in [*runtimes, "relay"]}
        memos = {**{n: rt._memo for n, rt in runtimes.items()}, "relay": relay._memo}
        peak = dict.fromkeys(memos, 0)

        def tap(name, deliver):
            def tapped(data, *addr):
                deliver(data, *addr)
                if data in fuzz:
                    arrived[name].append(data)
                peak[name] = max(peak[name], len(memos[name]))
            return tapped

        for name, rt in runtimes.items():
            rt._on_datagram = tap(name, rt._on_datagram)
        relay.datagram_received = tap("relay", relay.datagram_received)

        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setblocking(False)
        targets = [("127.0.0.1", relay_port)] + [("127.0.0.1", p) for p in ports]
        try:
            # The cluster is forming while this runs.
            for i, data in enumerate(CORPUS):
                for target in targets:
                    sock.sendto(data, target)
                if i % 10 == 9:
                    await asyncio.sleep(0.002)  # let the sockets drain
            await wait_for(
                lambda: all(node.view() == everyone for node in nodes.values()),
                what="three complete views under fire",
            )
            await asyncio.sleep(10 * CONFIG.heartbeat_period)

            assert loop_errors == []
            for name in arrived:
                # Nearly all of it got through, so the accounting below
                # is about the corpus and not about three lucky packets.
                assert len(arrived[name]) > 0.9 * len(CORPUS), name
                assert peak[name] <= MEMO_CAP, name
            for name, rt in runtimes.items():
                assert rt.wire_errors == rejected(arrived[name]), name
                assert rt._reasm.pending <= rt._reasm.max_buffers
            assert relay.wire_errors == rejected(arrived["relay"])
            assert relay._reasm.pending <= relay._reasm.max_buffers
            # The forged sources did overflow the memos ...
            assert max(peak.values()) == MEMO_CAP
            # ... and nobody lost anybody, or gained a ghost.
            assert all(node.view() == everyone for node in nodes.values())
            assert not any(name.startswith("forged") for name in relay.members)
        finally:
            sock.close()
            for n in nodes:
                nodes[n].stop()
                runtimes[n].close()
            relay.stop_sweeper()
            relay._transport.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Relay control handlers: decoded list elements are untrusted
# ----------------------------------------------------------------------
class TestRelayControlHardening:
    JUNK = corpus.JUNK_CHANNELS
    ADDR = ("127.0.0.1", 5000)

    def relay(self):
        spec = ClusterSpec(
            relay=RelaySpec(host="127.0.0.1", port=1),
            nodes={"a": NodeSpec(host="127.0.0.1", port=2)},
        )
        relay = ChannelRelay(spec, clock=lambda: 0.0)
        relay._on_sub({"node": "a", "segment": "s0", "channels": ["c1", "c2"]}, self.ADDR)
        return relay

    def control(self, kind, channels):
        payload = {"node": "a", "segment": "s0", "channels": channels}
        return encode_packet(Packet(src="a", kind=kind, payload=payload, size=0, dst="__relay__"))

    def test_unsub_with_unhashable_channels(self):
        # Was: TypeError: unhashable type: 'list' out of channels.get().
        relay = self.relay()
        relay.datagram_received(self.control("relay_unsub", self.JUNK + ["c1"]), self.ADDR)
        assert "c1" not in relay.channels  # the one real name still honoured
        assert "a" in relay.channels["c2"]
        assert relay.wire_errors == 0

    def test_sub_with_unhashable_channels(self):
        relay = self.relay()
        relay.datagram_received(self.control("relay_sub", self.JUNK + ["c3"]), self.ADDR)
        assert set(relay.channels) == {"c1", "c2", "c3"}

    @pytest.mark.parametrize(
        "payload", [None, 7, [], {"node": ["a"]}, {"node": "a", "channels": "c1"}]
    )
    def test_malformed_control_payloads_are_ignored(self, payload):
        relay = self.relay()
        for kind in ("relay_sub", "relay_unsub"):
            pkt = Packet(src="a", kind=kind, payload=payload, size=0, dst="__relay__")
            relay.datagram_received(encode_packet(pkt), self.ADDR)
        assert set(relay.channels["c1"]) == {"a"}
