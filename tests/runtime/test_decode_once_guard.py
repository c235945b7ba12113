"""Count-based guard: a quiet cluster decodes no heartbeat at all.

Machine-independent twin of the ledger's ``runtime.wire.calls``: two real
daemons and the channel relay on loopback UDP, formed and quiet.  Every
heartbeat that then arrives is byte-identical to its sender's previous
one, so over the next ``PERIODS`` heartbeat periods the strict decoder
runs **zero** times for a heartbeat — at either daemon and at the relay
— while every one of them is still received and absorbed on the
no-change path.

The decode memo only works because a heartbeat carries nothing that
changes from tick to tick (``repro.core.heartbeat``'s interning
contract).  A timestamp or per-tick counter added to ``Heartbeat`` would
silently turn every hit into a miss; it fails this test, not a
benchmark three PRs later.
"""

import asyncio

from repro.core import HierarchicalNode
from repro.core.config import HierarchicalConfig
from repro.obs.registry import MetricsRegistry
from repro.obs.wiring import Instruments
from repro.runtime import wire
from repro.runtime.anet import AsyncRuntime, ClusterSpec, NodeSpec, RelaySpec
from repro.runtime.relay import serve
from tests.runtime.test_relay_failover import free_ports, wait_for

PERIOD = 0.05
PERIODS = 20
CONFIG = HierarchicalConfig(heartbeat_period=PERIOD, election_delay=0.25, max_ttl=2)


def test_quiet_cluster_never_runs_the_decoder_for_a_heartbeat(monkeypatch):
    relay_port, port_a, port_b = free_ports(3)
    spec = ClusterSpec(
        relay=RelaySpec(host="127.0.0.1", port=relay_port),
        nodes={
            "a": NodeSpec(host="127.0.0.1", port=port_a),
            "b": NodeSpec(host="127.0.0.1", port=port_b),
        },
    )
    cold = []  # kind of every datagram that went through the strict decoder
    strict = wire.decode_packet

    def counting_decode(data):
        decoded = strict(data)
        cold.append(decoded[0].kind)
        return decoded

    # The memo reaches the decoder through wire's module global (as the
    # ledger's span table requires), so this sees every cold decode of
    # all three socket owners.
    monkeypatch.setattr(wire, "decode_packet", counting_decode)

    async def scenario():
        relay = await serve(spec, "127.0.0.1", relay_port)
        runtimes, nodes = {}, {}
        for node_id in spec.nodes:
            rt = AsyncRuntime(spec, node_id, instruments=Instruments(MetricsRegistry()))
            await rt.start()
            node = HierarchicalNode(None, node_id, config=CONFIG, runtime=rt)
            node.start()
            runtimes[node_id], nodes[node_id] = rt, node
        try:
            await wait_for(
                lambda: all(node.view() == ["a", "b"] for node in nodes.values())
                and any(node.is_leader(0) for node in nodes.values()),
                what="two complete views and a level-0 leader",
            )

            # Quiet: elections and the updates they send have died down,
            # i.e. no heartbeat has changed for ten periods.
            async def heartbeats_stopped_changing():
                seen = cold.count("heartbeat")
                await asyncio.sleep(10 * PERIOD)
                return cold.count("heartbeat") == seen

            for _ in range(30):
                if await heartbeats_stopped_changing():
                    break
            else:
                raise AssertionError(
                    "heartbeats never stopped changing: is there a per-tick field in Heartbeat?"
                )

            before = {
                n: (rt.obs.hb_rx.get(), rt.obs.hb_rx_fast.get(), rt.obs.decode_memo_hits.get())
                for n, rt in runtimes.items()
            }
            relay_entries = len(relay._memo)
            del cold[:]
            await asyncio.sleep(PERIODS * PERIOD)
            window = list(cold)

            assert window.count("heartbeat") == 0, window
            for n, rt in runtimes.items():
                received = rt.obs.hb_rx.get() - before[n][0]
                # Traffic flowed (so zero decodes is not vacuous) ...
                assert received >= PERIODS // 2
                # ... every heartbeat was served by the memo and absorbed
                # on the receiver's no-change path ...
                assert rt.obs.hb_rx_fast.get() - before[n][1] == received
                assert rt.obs.decode_memo_hits.get() - before[n][2] == received
                assert rt.wire_errors == 0
            # ... the relay routed them all off its memo too ...
            assert len(relay._memo) == relay_entries > 0
            assert relay.wire_errors == 0
            # ... and nobody lost anybody.
            assert all(node.view() == ["a", "b"] for node in nodes.values())
        finally:
            for n in nodes:
                nodes[n].stop()
                runtimes[n].close()
            relay.stop_sweeper()
            relay._transport.close()

    asyncio.run(scenario())
