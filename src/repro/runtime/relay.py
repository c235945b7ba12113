"""The channel relay: TTL-scoped multicast over localhost UDP.

IP multicast is unreliable-to-unavailable on a loopback test rig (and in
most container environments), so the real-network harness replaces the
switch/router fabric with one small relay process.  Daemons announce
their channel subscriptions (``relay_sub`` control datagrams, re-sent
periodically so the tables are soft state); a published channel datagram
is forwarded — as the *original bytes*, the relay never re-encodes — to
every subscriber within TTL distance of the sender, and never back to
the sender itself, matching the simulated fabric's semantics.

Soft state means *expiring* soft state: a member that stops
re-announcing (SIGKILLed daemon, or one whose single ``relay_unsub``
datagram was lost) is dropped from the fan-out tables after
:data:`MEMBER_EXPIRY` seconds, so a dead daemon never keeps receiving
traffic forever.  Every accepted ``relay_sub`` is answered with a
``relay_ack`` datagram — the health signal daemons use to detect a dead
relay and fail over to a replica (:mod:`repro.runtime.anet`).

Fragmented frames (see :mod:`repro.runtime.wire`) are reassembled just
far enough to read the routing header, then forwarded as the original
fragment datagrams, byte-for-byte.

TTL distance mirrors :func:`repro.net.topology.Topology` on the standard
LAN layout: ``1`` between nodes on the same segment (one switch hop),
``1 + routers_between_segments`` across segments.  With the default of
one core router, a TTL-1 (level-0) heartbeat reaches only the sender's
segment while TTL-2+ channels span the cluster — exactly the scoping the
hierarchical protocol's group levels rely on.

Run as a process::

    python -m repro.runtime.relay --spec cluster.json

Replicas listed under the spec's ``relay_replicas`` are run the same
way with ``--replica N`` (1-based; 0 is the primary).  The relay prints
``relay ready on HOST:PORT`` to stdout once bound, so launchers can
wait for it before booting daemons.
"""

from __future__ import annotations

import argparse
import asyncio
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, cast

from repro.net.packet import Packet
from repro.runtime.anet import (
    REANNOUNCE_PERIOD,
    RELAY_ACK,
    RELAY_DST,
    RELAY_SUB,
    RELAY_UNSUB,
    ClusterSpec,
    size_receive_buffer,
)
from repro.runtime.wire import (
    DecodeMemo,
    Reassembler,
    WireError,
    encode_packet,
    is_fragment,
)

__all__ = ["ChannelRelay", "MEMBER_EXPIRY", "main", "serve"]

#: A member not re-announced within this window is dropped from the
#: fan-out tables (3 missed re-announce periods).
MEMBER_EXPIRY = 3 * REANNOUNCE_PERIOD


@dataclass(slots=True)
class _Member:
    """One subscriber's soft state."""

    addr: Tuple[str, int]
    segment: str
    last_seen: float


class ChannelRelay(asyncio.DatagramProtocol):
    """Fan-out state machine behind one UDP socket."""

    def __init__(
        self,
        spec: ClusterSpec,
        *,
        clock: Callable[[], float] = time.monotonic,
        expiry: float = MEMBER_EXPIRY,
    ) -> None:
        self.spec = spec
        self._clock = clock
        self.expiry = expiry
        #: node -> soft state (last seen address, segment, last announce)
        self.members: Dict[str, _Member] = {}
        #: channel -> subscriber node ids (insertion-ordered); a channel
        #: is dropped with its last subscriber, so the dict is bounded by
        #: the live subscriptions, not by every name ever announced
        self.channels: Dict[str, Dict[str, None]] = {}
        #: datagrams dropped because they failed to decode
        self.wire_errors = 0
        #: members dropped by soft-state expiry
        self.expired = 0
        self._reasm = Reassembler(clock=clock)
        #: This socket's heartbeat decode memo: a repeated heartbeat is
        #: routed off one dict probe instead of a full payload decode.
        self._memo = DecodeMemo()
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._sweep_handle: Optional[asyncio.TimerHandle] = None

    # -- asyncio protocol ----------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        # Not isinstance-checked: CPython's selector event loop hands a
        # _SelectorDatagramTransport that does not subclass
        # asyncio.DatagramTransport (bpo-46756 lineage).
        size_receive_buffer(transport)
        self._transport = cast(asyncio.DatagramTransport, transport)

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        if is_fragment(data):
            try:
                frame = self._reasm.add(data)
            except WireError:
                self.wire_errors += 1
                return
            if frame is None:
                return
            self._handle_frame(frame.payload, addr, frame.fragments)
        else:
            self._handle_frame(data, addr, (data,))

    def _handle_frame(
        self, data: bytes, addr: Tuple[str, int], datagrams: Sequence[bytes]
    ) -> None:
        decoded = self._memo.get(data)
        if decoded is None:
            try:
                decoded = self._memo.decode(data)
            except WireError:
                self.wire_errors += 1
                return
        pkt = decoded[0]
        if pkt.kind == RELAY_SUB:
            self._on_sub(pkt.payload, addr)
        elif pkt.kind == RELAY_UNSUB:
            self._on_unsub(pkt.payload)
        elif pkt.channel is not None:
            self._forward(datagrams, pkt.src, pkt.channel, pkt.ttl, addr)

    # -- soft-state expiry ---------------------------------------------
    def expire(self, now: Optional[float] = None) -> int:
        """Drop members not re-announced within :attr:`expiry` seconds."""
        if now is None:
            now = self._clock()
        stale = [
            node
            for node, member in self.members.items()
            if now - member.last_seen > self.expiry
        ]
        for node in stale:
            del self.members[node]
            for subs in self.channels.values():
                subs.pop(node, None)
        if stale:
            self.channels = {c: subs for c, subs in self.channels.items() if subs}
        self.expired += len(stale)
        self._reasm.expire(now)
        return len(stale)

    def start_sweeper(self, loop: asyncio.AbstractEventLoop) -> None:
        """Run :meth:`expire` periodically on ``loop``."""
        interval = max(self.expiry / 3.0, 0.05)

        def tick() -> None:
            self.expire()
            self._sweep_handle = loop.call_later(interval, tick)

        self._sweep_handle = loop.call_later(interval, tick)

    def stop_sweeper(self) -> None:
        if self._sweep_handle is not None:
            self._sweep_handle.cancel()
            self._sweep_handle = None

    # -- control -------------------------------------------------------
    def _on_sub(self, payload: object, addr: Tuple[str, int]) -> None:
        if not isinstance(payload, dict):
            return
        node = payload.get("node")
        segment = payload.get("segment")
        channels = payload.get("channels")
        if not isinstance(node, str) or not isinstance(segment, str):
            return
        if not isinstance(channels, list):
            return
        self.members[node] = _Member(addr=addr, segment=segment, last_seen=self._clock())
        for channel in channels:
            if isinstance(channel, str):
                self.channels.setdefault(channel, {})[node] = None
        self._ack(node, addr)

    def _ack(self, node: str, addr: Tuple[str, int]) -> None:
        """Answer an announce: the daemon's relay health signal."""
        transport = self._transport
        if transport is None:
            return
        ack = Packet(src=RELAY_DST, kind=RELAY_ACK, payload=None, size=0, dst=node)
        transport.sendto(encode_packet(ack), addr)

    def _on_unsub(self, payload: object) -> None:
        if not isinstance(payload, dict):
            return
        node = payload.get("node")
        channels = payload.get("channels")
        if not isinstance(node, str) or not isinstance(channels, list):
            return
        for channel in channels:
            if not isinstance(channel, str):
                continue  # decoded elements are untrusted, possibly unhashable
            subs = self.channels.get(channel)
            if subs is not None:
                subs.pop(node, None)
                if not subs:
                    del self.channels[channel]

    # -- fan-out -------------------------------------------------------
    def _forward(
        self,
        datagrams: Sequence[bytes],
        src: str,
        channel: str,
        ttl: int,
        src_addr: Tuple[str, int],
    ) -> None:
        transport = self._transport
        if transport is None:
            return
        sender = self.members.get(src)
        # A publish can race the first relay_sub; the sender's datagram
        # source address plus its spec segment keep scoping correct.
        if sender is not None:
            src_segment = sender.segment
        else:
            node_spec = self.spec.nodes.get(src)
            src_segment = node_spec.segment if node_spec is not None else ""
        subs = self.channels.get(channel)
        if not subs:
            return
        for node in subs:
            if node == src:
                continue  # the fabric never echoes to the sender
            member = self.members.get(node)
            if member is None:
                continue
            if src_segment and self.spec.ttl_distance(src_segment, member.segment) > ttl:
                continue
            for datagram in datagrams:
                transport.sendto(datagram, member.addr)


async def serve(spec: ClusterSpec, host: str, port: int) -> ChannelRelay:
    """Bind the relay socket; returns the live protocol instance."""
    loop = asyncio.get_running_loop()
    relay = ChannelRelay(spec)
    await loop.create_datagram_endpoint(lambda: relay, local_addr=(host, port))
    relay.start_sweeper(loop)
    return relay


async def _run(
    spec_path: str, host: Optional[str], port: Optional[int], replica: int
) -> None:
    spec = ClusterSpec.load(spec_path)
    candidates = spec.relay_list
    if not (0 <= replica < len(candidates)):
        raise SystemExit(
            f"--replica {replica} out of range: spec lists {len(candidates)} relay(s)"
        )
    endpoint = candidates[replica]
    bind_host = host if host is not None else endpoint.host
    bind_port = port if port is not None else endpoint.port
    await serve(spec, bind_host, bind_port)
    print(f"relay ready on {bind_host}:{bind_port}", flush=True)
    await asyncio.Event().wait()  # run until killed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.relay",
        description="TTL-scoped channel relay for real-network clusters",
    )
    parser.add_argument("--spec", required=True, help="cluster spec JSON path")
    parser.add_argument("--host", default=None, help="bind host (default: spec)")
    parser.add_argument("--port", type=int, default=None, help="bind port (default: spec)")
    parser.add_argument(
        "--replica", type=int, default=0,
        help="which relay endpoint to bind: 0 = primary, N >= 1 = spec relay_replicas[N-1]",
    )
    opts = parser.parse_args(argv)
    try:
        asyncio.run(_run(opts.spec, opts.host, opts.port, opts.replica))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
