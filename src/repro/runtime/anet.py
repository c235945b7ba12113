"""The real-network adapter: :class:`NodeRuntime` over asyncio/UDP.

Where :class:`~repro.runtime.sim.SimRuntime` maps the ports onto the
discrete-event kernel, :class:`AsyncRuntime` maps the *same* ports onto
an asyncio event loop and one UDP socket per daemon:

* **clock** — the loop's monotonic clock, rebased so ``now`` starts near
  zero at :meth:`AsyncRuntime.start` (traces stay comparable to sim
  runs);
* **timers** — one-shots via ``loop.call_later`` with the same epoch
  guard as the simulator (scheduled-in-one-life never fires into the
  next); recurring timers reimplement the
  :class:`~repro.sim.engine.RecurringTimer` contract exactly — first
  fire at ``now + (first_delay if given else period)``, re-arm at
  ``fire_time + period`` *after* the callback so a self-cancelling
  callback stops cleanly, and no epoch guard (they belong to the life,
  not the incarnation);
* **unicast** — datagrams to the peer's address from the
  :class:`ClusterSpec` address book, framed by :mod:`repro.runtime.wire`
  and dispatched to the bound handler by port name;
* **multicast** — there is no usable IP multicast on a loopback test
  rig, so TTL-scoped channels go through the channel relay
  (:mod:`repro.runtime.relay`): ``publish`` sends one framed datagram to
  the relay, which fans out to every subscriber within TTL distance and
  never back to the sender (matching the simulated fabric).

Hardening (the two real-network cliffs):

* **Fragmentation** — frames larger than the spec's ``max_datagram``
  are split by :func:`repro.runtime.wire.fragment_frame` and
  reassembled transparently on receive; oversized raw datagrams (and
  OS-level send errors, including ICMP errors surfaced through
  ``error_received``) are counted as send failures and refused, so
  ``publish``/``send`` keep their *accepted for send* contract honest.
* **Relay failover** — the spec may list relay replicas.  Each
  ``relay_sub`` announce is acked by the relay; when the active relay
  stops acking for :data:`RELAY_TIMEOUT`, the runtime fails over to the
  next candidate (capped exponential backoff between full cycles), and
  once every candidate has failed it degrades to **direct unicast
  fan-out**: ``publish`` sends the framed channel datagram straight to
  every spec node within TTL distance (computed locally from segments).
  The first ack from any probed relay restores relay mode.

The runtime must be started inside a running event loop
(``await runtime.start()``) before any protocol ``start()`` schedules
timers or sends datagrams.
"""

from __future__ import annotations

import asyncio
import json
import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.cluster.directory import SlotTable
from repro.core.config import KNOBS
from repro.core.heartbeat import Heartbeat
from repro.net.packet import Packet
from repro.obs.wiring import NOOP, Instruments
from repro.runtime.ports import NodeRuntime, PacketHandler, TimerHandle
from repro.runtime.wire import (
    DEFAULT_MAX_DATAGRAM,
    MAX_UDP_PAYLOAD,
    DecodeMemo,
    Reassembler,
    WireError,
    encode_packet,
    fragment_frame,
    is_fragment,
)
from repro.sim.trace import Trace

__all__ = [
    "AsyncRuntime",
    "ClusterSpec",
    "NodeSpec",
    "RelaySpec",
    "RELAY_DST",
    "RELAY_SUB",
    "RELAY_UNSUB",
    "RELAY_ACK",
    "REANNOUNCE_PERIOD",
    "RELAY_TIMEOUT",
    "RELAY_BACKOFF_CAP",
    "FRAGMENT_TIMEOUT",
    "RECV_BUFFER",
    "size_receive_buffer",
]

#: Pseudo-destination for relay control datagrams (a Packet must carry
#: exactly one of dst/channel; control traffic is unicast to the relay).
RELAY_DST = "__relay__"

#: Relay control packet kinds.
RELAY_SUB = "relay_sub"
RELAY_UNSUB = "relay_unsub"
#: Relay -> daemon: acknowledges a ``relay_sub`` (the health signal the
#: failover logic watches).
RELAY_ACK = "relay_ack"

#: How often a daemon re-announces its subscriptions to the relay.  UDP
#: control datagrams can be lost; periodic re-announce makes membership
#: in the fan-out tables soft state, healed within one period.
REANNOUNCE_PERIOD = 2.0

#: No ack from the active relay for this long -> try the next candidate.
RELAY_TIMEOUT = 3 * REANNOUNCE_PERIOD

#: Cap on the exponential backoff between relay probe cycles once every
#: candidate has failed (the runtime is in unicast fallback meanwhile).
RELAY_BACKOFF_CAP = 30.0

#: A reassembly buffer missing fragments for this long is dropped.
FRAGMENT_TIMEOUT = 5.0

#: Per-receive buffer of every datagram socket: room for the largest UDP
#: payload (65,507 B over IPv4).  asyncio's 256 KiB default, allocated per
#: datagram and shrunk to fit, lets glibc trim and re-fault its heap top
#: on every receive in some heap layouts (~40 % more CPU on the 48-daemon
#: ledger workload where it happens).
RECV_BUFFER = 1 << 16


def size_receive_buffer(transport: asyncio.BaseTransport) -> None:
    """Set the buffer on CPython's datagram transports (other loops keep theirs)."""
    if hasattr(transport, "max_size"):
        setattr(transport, "max_size", RECV_BUFFER)


# ----------------------------------------------------------------------
# Cluster specification (the address book)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class NodeSpec:
    """One daemon's addresses: UDP endpoint, HTTP port, LAN segment."""

    host: str
    port: int
    http_port: int = 0
    segment: str = "s0"


@dataclass(frozen=True, slots=True)
class RelaySpec:
    """The channel relay's UDP endpoint."""

    host: str
    port: int


@dataclass(slots=True)
class ClusterSpec:
    """Static description of a deployed cluster.

    Real deployments would discover addresses via the bootstrap channel;
    for the localhost harness a JSON spec file stands in: the relay
    endpoint, every node's addresses, the segment layout, and protocol
    config overrides applied uniformly by the daemon entrypoint.
    """

    relay: RelaySpec
    nodes: Dict[str, NodeSpec]
    #: Routers on the path between two *distinct* segments.  The default
    #: mirrors the standard LAN builder: per-segment switch plus one core
    #: router, so same-segment distance is 1 and cross-segment is 2.
    routers_between_segments: int = 1
    #: ``HierarchicalConfig`` field overrides (e.g. ``heartbeat_period``).
    config: Dict[str, Any] = field(default_factory=dict)
    #: Standby relay endpoints, tried in order after the primary when the
    #: active relay stops acking announces.
    relay_replicas: List[RelaySpec] = field(default_factory=list)
    #: Safe per-datagram byte budget; frames above it are fragmented.
    max_datagram: int = DEFAULT_MAX_DATAGRAM

    @property
    def relay_list(self) -> List[RelaySpec]:
        """Failover order: the primary relay, then every replica."""
        return [self.relay, *self.relay_replicas]

    def ttl_distance(self, seg_a: str, seg_b: str) -> int:
        """TTL distance between two segments: ``1 + routers on path``."""
        if seg_a == seg_b:
            return 1
        return 1 + self.routers_between_segments

    def addr(self, node_id: str) -> Optional[Tuple[str, int]]:
        spec = self.nodes.get(node_id)
        if spec is None:
            return None
        return (spec.host, spec.port)

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "ClusterSpec":
        """Load a spec; a ``config`` key that is no knob is refused here."""
        config = dict(raw.get("config", {}))
        knobs = {knob.attr for knob in KNOBS}
        for key in config:
            if key not in knobs:
                raise ValueError(
                    f"unknown config key {key!r} in cluster spec; known: {sorted(knobs)}"
                )
        relay_raw = raw["relay"]
        nodes: Dict[str, NodeSpec] = {}
        for node_id, ns in raw["nodes"].items():
            nodes[node_id] = NodeSpec(
                host=ns["host"],
                port=int(ns["port"]),
                http_port=int(ns.get("http_port", 0)),
                segment=str(ns.get("segment", "s0")),
            )
        replicas = [
            RelaySpec(host=rs["host"], port=int(rs["port"]))
            for rs in raw.get("relay_replicas", [])
        ]
        return cls(
            relay=RelaySpec(host=relay_raw["host"], port=int(relay_raw["port"])),
            nodes=nodes,
            routers_between_segments=int(raw.get("routers_between_segments", 1)),
            config=config,
            relay_replicas=replicas,
            max_datagram=int(raw.get("max_datagram", DEFAULT_MAX_DATAGRAM)),
        )

    @classmethod
    def from_json(cls, text: str) -> "ClusterSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "ClusterSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "relay": {"host": self.relay.host, "port": self.relay.port},
            "relay_replicas": [
                {"host": rs.host, "port": rs.port} for rs in self.relay_replicas
            ],
            "max_datagram": self.max_datagram,
            "routers_between_segments": self.routers_between_segments,
            "config": dict(self.config),
            "nodes": {
                node_id: {
                    "host": ns.host,
                    "port": ns.port,
                    "http_port": ns.http_port,
                    "segment": ns.segment,
                }
                for node_id, ns in self.nodes.items()
            },
        }


# ----------------------------------------------------------------------
# Timer handles
# ----------------------------------------------------------------------
class _OneShot:
    """Epoch-guarded one-shot over ``loop.call_later``."""

    __slots__ = ("cancelled", "_handle")

    def __init__(self) -> None:
        self.cancelled = False
        self._handle: Optional[asyncio.TimerHandle] = None

    def cancel(self) -> None:
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()


class _Recurring:
    """Mirror of :class:`repro.sim.engine.RecurringTimer` over asyncio.

    Fires at ``start + first_delay`` then every ``period`` of *scheduled*
    time (re-armed at ``fire_time + period``, not ``now + period``, so
    slow callbacks do not drift the cadence).  Re-arm happens after the
    callback returns: a callback that cancels its own timer is never
    rescheduled.
    """

    __slots__ = ("cancelled", "_runtime", "_period", "_fn", "_args", "_next", "_handle")

    def __init__(
        self,
        runtime: "AsyncRuntime",
        period: float,
        fn: Callable[..., object],
        args: Tuple[object, ...],
        first_delay: Optional[float],
    ) -> None:
        if period <= 0:
            raise ValueError(f"recurring timer period must be positive, got {period}")
        if first_delay is not None and first_delay < 0:
            raise ValueError(f"first_delay must be >= 0, got {first_delay}")
        self.cancelled = False
        self._runtime = runtime
        self._period = period
        self._fn = fn
        self._args = args
        delay = period if first_delay is None else first_delay
        self._next = runtime.now + delay
        self._handle = runtime._call_at(self._next, self._fire)

    def _fire(self) -> None:
        if self.cancelled:
            return
        self._fn(*self._args)
        if self.cancelled:
            return
        self._next += self._period
        self._handle = self._runtime._call_at(self._next, self._fire)

    def cancel(self) -> None:
        self.cancelled = True
        self._handle.cancel()


class _NodeProtocol(asyncio.DatagramProtocol):
    """Feeds received datagrams into the runtime's dispatcher."""

    def __init__(self, runtime: "AsyncRuntime") -> None:
        self._runtime = runtime

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        self._runtime._on_datagram(data)

    def error_received(self, exc: Exception) -> None:
        # The OS surfacing an async send failure (ICMP port/host
        # unreachable, EMSGSIZE on some stacks).  The datagram is gone;
        # count it so "accepted for send" stays an honest contract.
        self._runtime._on_send_error(type(exc).__name__)


# ----------------------------------------------------------------------
# The adapter
# ----------------------------------------------------------------------
class AsyncRuntime(NodeRuntime):
    """One daemon's runtime over a real asyncio event loop and UDP."""

    def __init__(
        self,
        spec: ClusterSpec,
        node_id: str,
        *,
        trace: Optional[Trace] = None,
        instruments: Optional[Instruments] = None,
        seed: int = 0,
    ) -> None:
        if node_id not in spec.nodes:
            raise ValueError(f"node {node_id!r} not in cluster spec")
        self.spec = spec
        self.node_id = node_id
        self.segment = spec.nodes[node_id].segment
        self._trace = trace
        self._obs = instruments if instruments is not None else NOOP
        self._seed = seed
        self._slot_table = SlotTable()
        self._active = False
        self._epoch = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0 = 0.0
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._oneshots: Set[_OneShot] = set()
        self._recurring: List[_Recurring] = []
        self._subs: Dict[str, PacketHandler] = {}
        self._bound: Dict[str, PacketHandler] = {}
        self._reannounce: Optional[asyncio.TimerHandle] = None
        #: Datagrams dropped because they failed to decode.
        self.wire_errors = 0
        #: Sends refused or errored (oversize, OS error, ICMP report).
        self.send_errors = 0
        #: Reassembly buffers dropped (missing-fragment timeout/budget).
        self.frag_drops = 0
        #: Relay candidate switches after a health-check timeout.
        self.relay_failovers = 0
        # -- fragmentation --------------------------------------------
        #: Per-datagram byte budget; frames above it are fragmented.
        #: Instance attribute (seeded from the spec) so tests can tune.
        self.max_datagram = spec.max_datagram
        self._frame_seq = 0
        self._reasm = Reassembler(
            timeout=FRAGMENT_TIMEOUT, on_drop=self._on_frag_drop
        )
        # -- decode once / encode once --------------------------------
        #: This socket's heartbeat decode memo (never shared: daemons in
        #: one process each pay their own cold decode).
        self._memo = DecodeMemo()
        #: channel -> (payload, ttl, kind, size, datagram) of the last
        #: heartbeat published there: the wire twin of
        #: ``Announcer.hb_cache``.  The announcer re-publishes the same
        #: frozen instance until its signature moves, so identity of the
        #: payload proves the datagram would come out byte-identical.
        self._published: Dict[str, Tuple[Heartbeat, int, str, int, bytes]] = {}
        # -- relay failover -------------------------------------------
        #: Health/backoff knobs; instance attributes so tests can tune
        #: them (before start()) without monkeypatching the module.
        self.reannounce_period = REANNOUNCE_PERIOD
        self.relay_timeout = RELAY_TIMEOUT
        self.relay_backoff_cap = RELAY_BACKOFF_CAP
        self._relay_idx = 0
        self._relay_fallback = False
        self._relay_dead = 0  # candidates failed since the last ack
        self._relay_probe_timeout = self.relay_timeout
        self._last_relay_ack = 0.0  # raw loop time
        self._candidate_since = 0.0  # raw loop time

    # ------------------------------------------------------------------
    # Transport lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the UDP endpoint and begin relay re-announcements."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._t0 = loop.time()
        node = self.spec.nodes[self.node_id]
        transport, _ = await loop.create_datagram_endpoint(
            lambda: _NodeProtocol(self), local_addr=(node.host, node.port)
        )
        size_receive_buffer(transport)
        self._transport = transport
        self._relay_probe_timeout = self.relay_timeout
        self._last_relay_ack = loop.time()
        self._candidate_since = loop.time()
        self._schedule_reannounce()

    def close(self) -> None:
        """Tear down: deactivate, stop re-announce, close the socket."""
        self.deactivate()
        if self._reannounce is not None:
            self._reannounce.cancel()
            self._reannounce = None
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    def _lp(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            raise RuntimeError("AsyncRuntime.start() must run before use")
        return self._loop

    def _call_at(self, when: float, fn: Callable[[], None]) -> asyncio.TimerHandle:
        loop = self._lp()
        return loop.call_at(self._t0 + when, fn)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        if self._loop is None:
            return 0.0
        return self._loop.time() - self._t0

    # ------------------------------------------------------------------
    # Lifecycle / epochs
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        return self._active

    def activate(self) -> None:
        self._active = True
        self._epoch += 1

    def deactivate(self) -> None:
        self._active = False
        self._published.clear()
        for oneshot in list(self._oneshots):
            oneshot.cancel()
        self._oneshots.clear()
        for timer in self._recurring:
            timer.cancel()
        self._recurring.clear()

    def bump_epoch(self) -> None:
        self._epoch += 1

    @property
    def live_timers(self) -> int:
        return sum(1 for t in self._oneshots if not t.cancelled) + sum(
            1 for t in self._recurring if not t.cancelled
        )

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def call_once(
        self, delay: float, fn: Callable[..., object], *args: object
    ) -> TimerHandle:
        if delay < 0:
            raise ValueError(f"one-shot delay must be >= 0, got {delay}")
        epoch = self._epoch
        timer = _OneShot()

        def fire() -> None:
            self._oneshots.discard(timer)
            if self._active and self._epoch == epoch:
                fn(*args)

        timer._handle = self._lp().call_later(delay, fire)
        self._oneshots.add(timer)
        return timer

    def call_every(
        self,
        period: float,
        fn: Callable[..., object],
        *args: object,
        first_delay: Optional[float] = None,
    ) -> TimerHandle:
        self._lp()
        timer = _Recurring(self, period, fn, args, first_delay)
        self._recurring.append(timer)
        return timer

    # ------------------------------------------------------------------
    # Datagram dispatch
    # ------------------------------------------------------------------
    def _on_datagram(self, data: bytes) -> None:
        if is_fragment(data):
            try:
                frame = self._reasm.add(data)
            except WireError:
                self._count_wire_error(len(data))
                return
            if frame is None:
                return  # frame still incomplete (or a duplicate slice)
            data = frame.payload
        decoded = self._memo.get(data)
        if decoded is not None:
            self._obs.decode_memo_hits.inc()
        else:
            self._obs.decode_memo_misses.inc()
            try:
                decoded = self._memo.decode(data)
            except WireError:
                self._count_wire_error(len(data))
                return
        pkt, port = decoded
        if pkt.kind == RELAY_ACK:
            self._on_relay_ack()
        elif port is not None:
            handler = self._bound.get(port)
            if handler is not None and pkt.dst == self.node_id:
                handler(pkt)
        elif pkt.channel is not None:
            # The relay never echoes to the sender, but a misbehaving
            # relay must not let a node hear itself (and in unicast
            # fallback the fan-out is sender-side, so the filter is
            # load-bearing for loop-shaped specs).
            handler = self._subs.get(pkt.channel)
            if handler is not None and pkt.src != self.node_id:
                handler(pkt)

    def _count_wire_error(self, bytes_len: int) -> None:
        self.wire_errors += 1
        self._obs.wire_errors.inc()
        self.emit("wire_error", bytes_len=bytes_len)

    def _on_frag_drop(self, reason: str) -> None:
        self.frag_drops += 1
        self._obs.frag_drops.inc()
        self.emit("frag_drop", reason=reason)

    def _on_send_error(self, reason: str) -> None:
        self.send_errors += 1
        self._obs.send_errors.inc()
        self.emit("send_error", reason=reason)

    def _next_frame_id(self) -> int:
        self._frame_seq = (self._frame_seq + 1) & 0xFFFFFFFF
        return self._frame_seq

    def _sendto(self, data: bytes, addr: Tuple[str, int]) -> bool:
        transport = self._transport
        if transport is None or transport.is_closing():
            return False
        if len(data) > self.max_datagram:
            try:
                frags = fragment_frame(
                    data, self.node_id, self._next_frame_id(), self.max_datagram
                )
            except WireError:
                self._on_send_error("unfragmentable")
                return False
            ok = True
            for frag in frags:
                ok = self._raw_send(transport, frag, addr) and ok
            return ok
        return self._raw_send(transport, data, addr)

    def _raw_send(
        self, transport: asyncio.DatagramTransport, data: bytes, addr: Tuple[str, int]
    ) -> bool:
        if len(data) > MAX_UDP_PAYLOAD:
            # The OS would reject this with EMSGSIZE; refuse it locally
            # so the "accepted for send" return value stays truthful.
            self._on_send_error("oversize")
            return False
        try:
            transport.sendto(data, addr)
        except OSError as exc:
            self._on_send_error(type(exc).__name__)
            return False
        return True

    # ------------------------------------------------------------------
    # Multicast channels (via the relay, with failover)
    # ------------------------------------------------------------------
    @property
    def relay_index(self) -> int:
        """Index of the active relay candidate in ``spec.relay_list``."""
        return self._relay_idx

    @property
    def relay_fallback(self) -> bool:
        """True while no relay acks and publish degrades to unicast."""
        return self._relay_fallback

    def _relay_addr(self) -> Tuple[str, int]:
        relay = self.spec.relay_list[self._relay_idx]
        return (relay.host, relay.port)

    def _announce(self) -> None:
        """(Re-)send the full subscription set to the active relay.

        Sent even with zero subscriptions: the announce doubles as the
        relay health probe (the relay acks it), and it keeps this node's
        address registered for fan-out scoping.
        """
        if self._transport is None:
            return
        pkt = Packet(
            src=self.node_id,
            kind=RELAY_SUB,
            payload={
                "node": self.node_id,
                "segment": self.segment,
                "channels": sorted(self._subs),
            },
            size=0,
            dst=RELAY_DST,
        )
        self._sendto(encode_packet(pkt), self._relay_addr())

    def _schedule_reannounce(self) -> None:
        loop = self._lp()

        def tick() -> None:
            self._reasm.expire()
            self._relay_health_check()
            self._announce()
            self._reannounce = loop.call_later(self.reannounce_period, tick)

        self._reannounce = loop.call_later(self.reannounce_period, tick)

    def _relay_health_check(self) -> None:
        """Fail over when the active relay has not acked in time.

        Candidates are tried round-robin; once a whole cycle fails the
        runtime enters unicast fallback and keeps probing the ring with
        a capped exponential backoff.  Any ack resets everything.
        """
        loop = self._loop
        if loop is None:
            return
        now = loop.time()
        heard = max(self._last_relay_ack, self._candidate_since)
        if now - heard <= self._relay_probe_timeout:
            return
        candidates = self.spec.relay_list
        self._relay_idx = (self._relay_idx + 1) % len(candidates)
        self._candidate_since = now
        self._relay_dead += 1
        self.relay_failovers += 1
        self._obs.relay_failovers.inc()
        self.emit("relay_failover", index=self._relay_idx)
        if self._relay_dead >= len(candidates):
            if not self._relay_fallback:
                self._relay_fallback = True
                self.emit("relay_fallback")
            self._relay_probe_timeout = min(
                self._relay_probe_timeout * 2, self.relay_backoff_cap
            )

    def _on_relay_ack(self) -> None:
        loop = self._loop
        if loop is None:
            return
        self._last_relay_ack = loop.time()
        self._relay_dead = 0
        self._relay_probe_timeout = self.relay_timeout
        if self._relay_fallback:
            self._relay_fallback = False
            self.emit("relay_restored", index=self._relay_idx)

    def _fanout_unicast(self, data: bytes, ttl: int) -> bool:
        """Degraded multicast: direct fan-out over the spec's addresses.

        TTL scoping is computed locally from the segment layout, exactly
        as the relay would.  Receivers filter on their own subscription
        table, so over-delivery to non-subscribers is harmless.
        """
        ok = True
        sent = False
        for node_id, ns in self.spec.nodes.items():
            if node_id == self.node_id:
                continue
            if self.spec.ttl_distance(self.segment, ns.segment) > ttl:
                continue
            sent = True
            ok = self._sendto(data, (ns.host, ns.port)) and ok
        return ok if sent else True

    def subscribe(self, channel: str, handler: PacketHandler) -> None:
        self._subs[channel] = handler
        self._announce()

    def unsubscribe(self, channel: str) -> None:
        self._subs.pop(channel, None)
        self._published.pop(channel, None)
        pkt = Packet(
            src=self.node_id,
            kind=RELAY_UNSUB,
            payload={"node": self.node_id, "channels": [channel]},
            size=0,
            dst=RELAY_DST,
        )
        self._sendto(encode_packet(pkt), self._relay_addr())

    def publish(
        self, channel: str, ttl: int, kind: str, payload: object, size: int
    ) -> bool:
        last = self._published.get(channel)
        if (
            last is not None
            and last[0] is payload
            and last[1] == ttl
            and last[2] == kind
            and last[3] == size
        ):
            data = last[4]
        else:
            pkt = Packet(
                src=self.node_id,
                kind=kind,
                payload=payload,
                size=size,
                channel=channel,
                ttl=ttl,
            )
            data = encode_packet(pkt)
            if isinstance(payload, Heartbeat):
                self._published[channel] = (payload, ttl, kind, size, data)
        if self._relay_fallback:
            return self._fanout_unicast(data, ttl)
        return self._sendto(data, self._relay_addr())

    # ------------------------------------------------------------------
    # Unicast datagrams
    # ------------------------------------------------------------------
    def bind(self, port: str, handler: PacketHandler) -> None:
        self._bound[port] = handler

    def unbind(self, port: str) -> None:
        self._bound.pop(port, None)

    def send(
        self, dst: str, kind: str, payload: object, size: int, port: str = "membership"
    ) -> bool:
        addr = self.spec.addr(dst)
        if addr is None:
            # Refused locally: no address for the destination.  The port
            # contract makes this the only meaningful False.
            return False
        pkt = Packet(src=self.node_id, kind=kind, payload=payload, size=size, dst=dst)
        return self._sendto(encode_packet(pkt, port), addr)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def obs(self) -> Instruments:
        return self._obs

    def emit(self, kind: str, **data: object) -> None:
        trace = self._trace
        if trace is not None and trace.wants():
            trace.emit(self.now, kind, node=self.node_id, **data)

    # ------------------------------------------------------------------
    # Directory storage
    # ------------------------------------------------------------------
    @property
    def slot_table(self) -> SlotTable:
        return self._slot_table

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------
    def rng_stream(self, name: str) -> random.Random:
        # Stable across processes (no PYTHONHASHSEED dependence): each
        # named stream derives from the deployment seed and a CRC of the
        # stream name.
        return random.Random((self._seed << 32) ^ zlib.crc32(name.encode("utf-8")))
