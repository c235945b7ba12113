"""Relay hardening: ack health-checks, failover, fallback, soft-state expiry.

Real asyncio + real loopback UDP sockets, but kept tier-1-fast: the
health knobs are instance attributes tuned down to tens of
milliseconds, and every wait polls a condition instead of sleeping a
fixed worst case.  The 20-process cluster versions of these scenarios
live behind the ``network`` marker (``tests/network/``).
"""

import asyncio
import socket

import pytest

from repro.runtime.anet import AsyncRuntime, ClusterSpec, NodeSpec, RelaySpec
from repro.runtime.relay import ChannelRelay, serve
from repro.runtime.anet import _NodeProtocol


def free_ports(count):
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


async def wait_for(cond, timeout=8.0, what="condition"):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not cond():
        if loop.time() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        await asyncio.sleep(0.01)


def fast(runtime: AsyncRuntime) -> AsyncRuntime:
    """Shrink the health/backoff knobs so failover happens in ~100 ms."""
    runtime.reannounce_period = 0.05
    runtime.relay_timeout = 0.12
    runtime.relay_backoff_cap = 0.4
    return runtime


def two_node_spec(relay_ports, *, segments=("s0", "s0"), max_datagram=None):
    pa, pb = free_ports(2)
    kwargs = {}
    if max_datagram is not None:
        kwargs["max_datagram"] = max_datagram
    return ClusterSpec(
        relay=RelaySpec(host="127.0.0.1", port=relay_ports[0]),
        nodes={
            "a": NodeSpec(host="127.0.0.1", port=pa, segment=segments[0]),
            "b": NodeSpec(host="127.0.0.1", port=pb, segment=segments[1]),
        },
        relay_replicas=[
            RelaySpec(host="127.0.0.1", port=p) for p in relay_ports[1:]
        ],
        **kwargs,
    )


# ----------------------------------------------------------------------
# Ack health signal
# ----------------------------------------------------------------------
def test_relay_acks_announces_and_keeps_runtime_in_relay_mode():
    (relay_port,) = free_ports(1)
    spec = two_node_spec([relay_port])

    async def scenario():
        relay = await serve(spec, "127.0.0.1", relay_port)
        rt = fast(AsyncRuntime(spec, "a"))
        await rt.start()
        rt.activate()
        t0 = asyncio.get_running_loop().time()
        try:
            rt.subscribe("chan", lambda pkt: None)
            await wait_for(lambda: rt._last_relay_ack > t0, what="relay ack")
            assert not rt.relay_fallback
            assert rt.relay_index == 0
            assert rt.relay_failovers == 0
            assert "a" in relay.members
            assert "a" in relay.channels["chan"]
        finally:
            rt.close()
            relay.stop_sweeper()
            relay._transport.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Failover to a replica
# ----------------------------------------------------------------------
def test_failover_to_replica_restores_multicast():
    r0_port, r1_port = free_ports(2)
    spec = two_node_spec([r0_port, r1_port])

    async def scenario():
        r0 = await serve(spec, "127.0.0.1", r0_port)
        r1 = await serve(spec, "127.0.0.1", r1_port)
        pub = fast(AsyncRuntime(spec, "a"))
        sub = fast(AsyncRuntime(spec, "b"))
        await pub.start()
        await sub.start()
        pub.activate()
        sub.activate()
        got = []
        try:
            sub.subscribe("chan", got.append)
            # Healthy path first: traffic flows through the primary.
            await wait_for(lambda: "b" in r0.members, what="sub registered at r0")
            await wait_for(
                lambda: pub.publish("chan", 2, "hb", {"n": 0}, 10) and got,
                what="delivery via primary relay",
            )
            got.clear()
            # Kill the primary (socket down, sweeper off).
            r0.stop_sweeper()
            r0._transport.close()
            await wait_for(
                lambda: pub.relay_index == 1 and sub.relay_index == 1,
                what="both runtimes failing over to the replica",
            )
            assert pub.relay_failovers >= 1
            await wait_for(lambda: "b" in r1.members, what="sub registered at r1")
            await wait_for(
                lambda: pub.publish("chan", 2, "hb", {"n": 1}, 10) and got,
                what="delivery via replica relay",
            )
            assert not pub.relay_fallback  # a replica answered: no fallback
        finally:
            pub.close()
            sub.close()
            r1.stop_sweeper()
            r1._transport.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Unicast fallback when no relay is reachable
# ----------------------------------------------------------------------
def test_unicast_fallback_delivers_and_recovers():
    (dead_port,) = free_ports(1)  # reserved then released: nothing listens
    spec = two_node_spec([dead_port])

    async def scenario():
        pub = fast(AsyncRuntime(spec, "a"))
        sub = fast(AsyncRuntime(spec, "b"))
        await pub.start()
        await sub.start()
        pub.activate()
        sub.activate()
        got = []
        relay = None
        try:
            sub.subscribe("chan", got.append)
            await wait_for(lambda: pub.relay_fallback, what="publisher entering fallback")
            # Backoff between probe cycles grows but stays capped.
            assert pub._relay_probe_timeout <= pub.relay_backoff_cap
            await wait_for(
                lambda: pub.publish("chan", 2, "hb", {"n": 2}, 10) and got,
                what="delivery via direct unicast fan-out",
            )
            assert got[0].src == "a" and got[0].channel == "chan"
            # A relay coming up on the configured address is re-adopted.
            relay = await serve(spec, "127.0.0.1", dead_port)
            await wait_for(lambda: not pub.relay_fallback, what="relay re-adoption")
        finally:
            pub.close()
            sub.close()
            if relay is not None:
                relay.stop_sweeper()
                relay._transport.close()

    asyncio.run(scenario())


def test_fallback_respects_ttl_scoping():
    (dead_port,) = free_ports(1)
    spec = two_node_spec([dead_port], segments=("s0", "s1"))

    async def scenario():
        pub = fast(AsyncRuntime(spec, "a"))
        sub = fast(AsyncRuntime(spec, "b"))
        await pub.start()
        await sub.start()
        pub.activate()
        sub.activate()
        got = []
        try:
            sub.subscribe("chan", got.append)
            await wait_for(lambda: pub.relay_fallback, what="fallback")
            # TTL 1 = segment-local: a cross-segment peer must not hear it.
            for _ in range(5):
                assert pub.publish("chan", 1, "hb", {"ttl": 1}, 10) is True
                await asyncio.sleep(0.02)
            assert got == []
            # TTL 2 spans the one-router layout.
            await wait_for(
                lambda: pub.publish("chan", 2, "hb", {"ttl": 2}, 10) and got,
                what="cross-segment delivery at TTL 2",
            )
        finally:
            pub.close()
            sub.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Relay soft-state expiry
# ----------------------------------------------------------------------
class TestRelayExpiry:
    def spec(self):
        return ClusterSpec(
            relay=RelaySpec(host="127.0.0.1", port=1),
            nodes={"a": NodeSpec(host="127.0.0.1", port=2)},
        )

    def test_silent_member_expires(self):
        clock = {"now": 0.0}
        relay = ChannelRelay(self.spec(), clock=lambda: clock["now"], expiry=6.0)
        relay._on_sub({"node": "a", "segment": "s0", "channels": ["c1", "c2"]},
                      ("127.0.0.1", 5000))
        relay._on_sub({"node": "b", "segment": "s0", "channels": ["c1"]},
                      ("127.0.0.1", 5001))
        assert set(relay.channels["c1"]) == {"a", "b"}
        # b keeps re-announcing; a goes silent (SIGKILL / lost unsub).
        clock["now"] = 5.0
        relay._on_sub({"node": "b", "segment": "s0", "channels": ["c1"]},
                      ("127.0.0.1", 5001))
        clock["now"] = 8.0
        assert relay.expire() == 1
        assert "a" not in relay.members
        assert set(relay.channels["c1"]) == {"b"}
        assert "c2" not in relay.channels  # dropped with its last subscriber
        assert relay.expired == 1

    def test_channel_table_holds_only_live_subscriptions(self):
        clock = {"now": 0.0}
        relay = ChannelRelay(self.spec(), clock=lambda: clock["now"], expiry=6.0)
        addr_a, addr_b = ("127.0.0.1", 5000), ("127.0.0.1", 5001)
        relay._on_sub({"node": "b", "segment": "s0", "channels": ["keep", "only-b"]}, addr_b)
        for i in range(1000):
            relay._on_sub({"node": "a", "segment": "s0", "channels": ["keep", f"c{i}"]}, addr_a)
            relay._on_unsub({"node": "a", "channels": [f"c{i}"]})
        assert set(relay.channels) == {"keep", "only-b"}
        assert set(relay.channels["keep"]) == {"b", "a"}
        # b falls silent: its private channel goes with it, the shared one stays.
        clock["now"] = 5.0
        relay._on_sub({"node": "a", "segment": "s0", "channels": ["keep"]}, addr_a)
        clock["now"] = 8.0
        assert relay.expire() == 1
        assert relay.channels == {"keep": {"a": None}}

    def test_reannounce_refreshes_lease(self):
        clock = {"now": 0.0}
        relay = ChannelRelay(self.spec(), clock=lambda: clock["now"], expiry=6.0)
        for step in range(5):
            clock["now"] = step * 5.0
            relay._on_sub({"node": "a", "segment": "s0", "channels": ["c"]},
                          ("127.0.0.1", 5000))
            assert relay.expire() == 0
        assert "a" in relay.members


# ----------------------------------------------------------------------
# Send guards / error_received surfacing
# ----------------------------------------------------------------------
class TestSendGuards:
    def test_oversize_datagram_refused_not_silently_lost(self):
        (dead_port,) = free_ports(1)
        # max_datagram raised past the OS limit: fragmentation is
        # disabled for frames this size, so the raw-send guard must trip.
        spec = two_node_spec([dead_port], max_datagram=200_000)

        async def scenario():
            rt = AsyncRuntime(spec, "a")
            await rt.start()
            rt.activate()
            try:
                ok = rt.send("b", "sync_resp", b"x" * 70_000, size=70_000)
                assert ok is False
                assert rt.send_errors == 1
            finally:
                rt.close()

        asyncio.run(scenario())

    def test_fragmented_oversize_send_is_accepted(self):
        (dead_port,) = free_ports(1)
        spec = two_node_spec([dead_port])  # default max_datagram: fragments

        async def scenario():
            rt = AsyncRuntime(spec, "a")
            await rt.start()
            rt.activate()
            try:
                assert rt.send("b", "sync_resp", b"x" * 70_000, size=70_000) is True
                assert rt.send_errors == 0
            finally:
                rt.close()

        asyncio.run(scenario())

    def test_error_received_counts_send_failures(self):
        (dead_port,) = free_ports(1)
        spec = two_node_spec([dead_port])

        async def scenario():
            rt = AsyncRuntime(spec, "a")
            await rt.start()
            rt.activate()
            try:
                proto = _NodeProtocol(rt)
                proto.error_received(ConnectionRefusedError("ICMP port unreachable"))
                assert rt.send_errors == 1
            finally:
                rt.close()

        asyncio.run(scenario())

    def test_send_to_unknown_destination_still_refused(self):
        (dead_port,) = free_ports(1)
        spec = two_node_spec([dead_port])

        async def scenario():
            rt = AsyncRuntime(spec, "a")
            await rt.start()
            rt.activate()
            try:
                assert rt.send("ghost", "hb", None, size=0) is False
            finally:
                rt.close()

        asyncio.run(scenario())


def test_relay_forwards_fragmented_frames_as_original_bytes():
    """A fragmented publish crosses the relay and reassembles intact."""
    (relay_port,) = free_ports(1)
    spec = two_node_spec([relay_port])
    big = {"snapshot": b"v" * 120_000}

    async def scenario():
        relay = await serve(spec, "127.0.0.1", relay_port)
        pub = fast(AsyncRuntime(spec, "a"))
        sub = fast(AsyncRuntime(spec, "b"))
        await pub.start()
        await sub.start()
        pub.activate()
        sub.activate()
        got = []
        try:
            sub.subscribe("chan", got.append)
            await wait_for(lambda: "b" in relay.members, what="sub registration")
            await wait_for(
                lambda: pub.publish("chan", 2, "sync", big, 120_000) and got,
                what="fragmented delivery through the relay",
            )
            assert got[0].payload == big
        finally:
            pub.close()
            sub.close()
            relay.stop_sweeper()
            relay._transport.close()

    asyncio.run(scenario())


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
