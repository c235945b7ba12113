"""The per-shard :class:`~repro.net.network.Network` and what sharding adds to it.

One :class:`ShardNetwork` is the world a shard's protocol nodes live in:
a plain ``Network`` handed a :class:`~repro.shard.engine.ShardSimulator`
and a :class:`ShardTrace`, over a full **replica** of the topology (every
shard builds the identical graph from the scenario spec and applies the
identical control operations, so distance/route queries agree
everywhere).  Its two fabrics are the plain ones —
:class:`~repro.net.multicast.MulticastFabric` and
:class:`~repro.net.transport.UnicastTransport` — subclassed only where a
send can leave the sender's segment.

Which half runs where
---------------------
* **Same-segment** (sender and receiver in one L2 segment, hence one
  shard): the inherited send path, at send time, against live local
  state — delivery plan, loss, chaos, one event per delay bucket.
  Latency is below the cross-segment lookahead, so these deliveries
  cannot wait for a barrier.  The multicast plan is kept to the segment
  by a plan-build-time route filter; nothing per send or per receiver.
* **Cross-segment** (always crosses a router/WAN pinch, latency ≥ the
  lookahead): the send appends one :class:`Descriptor` to the shard's
  outbox.  At the next window barrier all outboxes are merged, sorted by
  ``(t_send, key)``, and *every* shard evaluates the merged stream
  against its own local receivers — even the sender's shard, for its
  locally-owned other segments.  This holds for shards=1 too, which is
  what makes the merged trace shard-count invariant.  Deliveries run the
  inherited ``_deliver_batch`` / ``_deliver``.

Determinism of the stochastic processes
---------------------------------------
The plain ``Network`` draws loss/chaos from two shared streams
(``net.loss``, ``net.chaos``) in global execution order — an order that
does not survive partitioning.  Here a delivery draws from the streams of
its **destination segment** (``shard.loss.<segment>``,
``shard.chaos.<segment>``), selected once per send at send time and once
per destination segment at the barrier.  For one segment the draw order
is its shard's execution order (same-segment sends) merged with the
globally-sorted descriptor order (barrier evaluations), both of which are
shard-count invariant because a segment is never split; draws for
different segments come from independent streams, so their interleaving
cannot matter.  Chaos rule *matching* uses the send time (``t_send``) in
both halves.

Virtual addresses (``bind_address`` / IP takeover) are intentionally
unsupported: only the two-DC proxy experiment uses them and it is out of
the sharded kernel's scope.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.multicast import MulticastFabric
from repro.net.network import Network
from repro.net.packet import Packet
from repro.net.topology import UNREACHABLE, Topology
from repro.net.transport import UnicastTransport
from repro.shard.engine import Key, ShardSimulator
from repro.shard.partition import ShardMap
from repro.sim.trace import Trace

__all__ = ["Descriptor", "ShardNetwork", "ShardTrace"]

Handler = Callable[[Packet], None]

#: What the send-time plan sees for a host outside the sender's segment.
_OUT_OF_SEGMENT = (UNREACHABLE, UNREACHABLE)

#: destination segment -> ``(host, handler, delay)`` in subscription order.
_RemotePlan = Dict[int, List[Tuple[str, Handler, float]]]


class Descriptor:
    """One cross-segment send, in declarative (evaluatable) form.

    ``key`` is the send's unique event key (allocated from the sending
    event's context, hence shard-count invariant); barrier-scheduled
    deliveries extend it with ``(segment, bucket_index)`` for a multicast
    and ``(copy_index,)`` for a unicast.  The packet rides along whole —
    receivers resolve scope, latency, loss and chaos themselves at the
    barrier, against replica state.
    """

    __slots__ = ("key", "t_send", "packet", "port")

    def __init__(
        self, key: Key, t_send: float, packet: Packet, port: Optional[str] = None
    ) -> None:
        self.key = key
        self.t_send = t_send
        self.packet = packet
        self.port = port

    def sort_key(self) -> Tuple[float, Key]:
        return (self.t_send, self.key)

    def __reduce__(self) -> Tuple[object, Tuple[object, ...]]:
        return (Descriptor, (self.key, self.t_send, self.packet, self.port))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Descriptor t={self.t_send:.6f} key={self.key} kind={self.packet.kind}>"


class ShardTrace(Trace):
    """A :class:`Trace` that stamps every retained record with a merge key.

    The merge key is ``(time, priority, seq, emit_index)`` — the sort key
    of the event (or root context) that emitted the record plus a
    per-event emission counter.  Sorting the union of all shards' records
    by it reproduces one global total order, byte-identical for every
    shard count.
    """

    def __init__(self, sim: ShardSimulator, **kwargs: object) -> None:
        super().__init__(**kwargs)  # type: ignore[arg-type]
        self._sim = sim
        self.keys: List[Tuple[float, int, Key, int]] = []
        self._ctx_last: Optional[Tuple[int, Key]] = None
        self._ctx_idx = 0

    def emit(
        self, time: float, kind: str, node: Optional[str] = None, **data: object
    ) -> None:
        before = len(self._records)
        super().emit(time, kind, node, **data)
        if len(self._records) > before:
            ctx = self._sim.current_key()
            if ctx != self._ctx_last:
                self._ctx_last = ctx
                self._ctx_idx = 0
            self.keys.append((time, ctx[0], ctx[1], self._ctx_idx))
            self._ctx_idx += 1


class _ShardMulticastFabric(MulticastFabric):
    """The plain fabric, scoped to the sender's segment at send time.

    Subscriptions, delivery plans, loss and chaos draws, delay buckets,
    in-flight revalidation and metering are all inherited; this class
    only narrows plans to the sender's structural segment, records the
    :class:`Descriptor` for everything beyond it, and evaluates other
    shards' descriptors at the barrier.
    """

    def __init__(self, net: "ShardNetwork", *args: Any) -> None:
        super().__init__(*args)
        self.net = net
        # (channel, src, ttl) -> ((topology version, subscription version),
        # out-of-segment recipients by destination segment): the barrier
        # half's twin of the inherited plan cache, validated on read.
        self._remote: Dict[Tuple[str, str, int], Tuple[Tuple[int, int], _RemotePlan]] = {}

    def _plan_route(self) -> Callable[[str, str], Tuple[float, float]]:
        return self._segment_route

    def _segment_route(self, src: str, host: str) -> Tuple[float, float]:
        """``mc_route`` with every other segment out of scope.

        Segments are structural (up/down state never moves a host
        between them), so barrier-applied topology ops cannot make this
        half and :meth:`evaluate` overlap or leave a gap.
        """
        topo = self.topo
        if topo.segment_of(host) != topo.segment_of(src):
            return _OUT_OF_SEGMENT
        return topo.mc_route(src, host)

    def send(self, packet: Packet) -> int:
        """Send-time half: the inherited send, plus one descriptor.

        Returns the number of in-scope same-segment receivers (the
        cross-segment fan-out is not known until the barriers evaluate
        it — but the return value is the same for every shard count).
        """
        net = self.net
        self.loss_rng = net.select_streams(self.topo.segment_of(packet.src))
        delivered = super().send(packet)
        # Cross-segment scope needs TTL >= 2 (at least one router hop), so
        # local-only sends — the L0 heartbeat bulk — skip the barrier
        # exchange entirely.  The condition depends only on the packet,
        # keeping descriptor keys aligned across shard counts.
        if packet.ttl >= 2 and self.topo.is_up(packet.src):
            net.outbox.append(Descriptor(net.sim.next_key(), net.sim.now, packet))
        return delivered

    def _remote_plan(
        self, channel: str, src: str, ttl: int, stamp: Tuple[int, int]
    ) -> _RemotePlan:
        """Local out-of-segment recipients of a send, by destination segment.

        Each segment's ``(host, handler, delay)`` list is in subscription
        order, like the inherited plans.
        """
        key = (channel, src, ttl)
        cached = self._remote.get(key)
        if cached is not None and cached[0] == stamp:
            return cached[1]
        topo = self.topo
        src_seg = topo.segment_of(src)
        plan: _RemotePlan = {}
        for host, handler in self._subs[channel].items():
            seg = topo.segment_of(host)
            if seg == src_seg:
                continue  # covered at send time, in the sender's shard
            hops, lat = topo.mc_route(src, host)
            if hops <= ttl:
                plan.setdefault(seg, []).append((host, handler, lat + self.proc_delay))
        self._remote[key] = (stamp, plan)
        return plan

    def evaluate(self, d: Descriptor) -> None:
        """Barrier half: schedule ``d`` for local receivers in other segments.

        Receivers are grouped by destination segment (never split across
        shards) and, inside one, by identical delay; each group is one
        event keyed ``d.key + (segment, bucket)`` running the inherited
        :meth:`_deliver_batch`.  Loss, then chaos, is drawn receiver by
        receiver in subscription order from the destination segment's
        streams; chaos rules match on the send time, as at send time.
        """
        packet = d.packet
        channel = packet.channel
        assert channel is not None
        if not self._subs.get(channel):
            return
        net = self.net
        src = packet.src
        stamp = (self.topo.version, self._sub_version[channel])
        fault = self.fault_plan
        if fault is not None and not fault.rules:
            fault = None
        rate = self.loss_rate
        in_scope = dropped = 0
        for seg, recipients in self._remote_plan(channel, src, packet.ttl, stamp).items():
            loss = net.select_streams(seg)
            in_scope += len(recipients)
            buckets: Dict[float, List[Tuple[str, Handler]]] = {}
            for host, handler, delay in recipients:
                if rate > 0.0 and loss.random() < rate:
                    dropped += 1
                    continue
                offsets = fault.offsets(src, host, d.t_send) if fault is not None else None
                for off in (0.0,) if offsets is None else offsets:
                    buckets.setdefault(delay + off, []).append((host, handler))
            for i, (delay, bucket) in enumerate(buckets.items()):
                net.sim.call_at_keyed(
                    d.t_send + delay,
                    d.key + (seg, i),
                    self._deliver_batch,
                    bucket,
                    packet,
                    stamp,
                )
        if in_scope:
            self.obs.mc_deliveries.add(in_scope)
        if dropped:
            self.obs.mc_drops.add(dropped)


class _ShardTransport(UnicastTransport):
    """The plain transport for same-segment datagrams; the rest wait.

    Ports, routes, loss, chaos and delivery are inherited.  A datagram
    whose destination lies in another segment becomes a
    :class:`Descriptor` instead and is evaluated, by the shard that owns
    the destination, at the next barrier.
    """

    def __init__(self, net: "ShardNetwork", *args: Any) -> None:
        super().__init__(*args)
        self.net = net

    def bind_address(self, address: str, host: str) -> None:
        raise NotImplementedError(
            "virtual addresses (IP takeover) are not supported by the "
            "sharded kernel; run the proxy scenario on the plain Network"
        )

    def send(self, packet: Packet, port: str = "membership") -> bool:
        net = self.net
        topo = self.topo
        src = packet.src
        dst = packet.dst
        src_seg = topo.segment_of(src)
        if dst is None or dst not in net.smap.host_rank or topo.segment_of(dst) == src_seg:
            # In-segment — or not a host at all, which the inherited send
            # rejects or counts as unroutable.
            self.loss_rng = net.select_streams(src_seg)
            return super().send(packet, port)
        # Leaves the segment: account for the transmission here; loss,
        # chaos and delivery are the destination shard's, at the barrier.
        if not topo.is_up(src):
            return False
        now = net.sim.now
        self.meter.record(now, src, "tx", packet.kind, packet.size)
        self.obs.uc_tx.inc()
        if self._route(src, dst) is None:
            self.obs.uc_unroutable.inc()
            return False
        net.outbox.append(Descriptor(net.sim.next_key(), now, packet, port))
        return True

    def evaluate(self, d: Descriptor) -> None:
        """Barrier half: deliver ``d`` if this shard owns its destination."""
        net = self.net
        packet = d.packet
        assert packet.dst is not None and d.port is not None
        if not net.owns(packet.dst):
            return
        route = self._route(packet.src, packet.dst)
        if route is None:
            self.obs.uc_unroutable.inc()
            return
        host, delay = route
        loss = net.select_streams(self.topo.segment_of(host))
        if self.loss_rate > 0.0 and loss.random() < self.loss_rate:
            self.obs.uc_drops.inc()
            return
        fault = self.fault_plan
        offsets: Optional[Tuple[float, ...]] = None
        if fault is not None and fault.rules:
            offsets = fault.offsets(packet.src, host, d.t_send)
        for copy, off in enumerate((0.0,) if offsets is None else offsets):
            net.sim.call_at_keyed(
                d.t_send + delay + off,
                d.key + (copy,),
                self._deliver,
                packet,
                host,
                d.port,
            )


class ShardNetwork(Network):
    """One shard's :class:`Network` (see module docstring)."""

    sim: ShardSimulator
    trace: ShardTrace
    multicast_fabric: _ShardMulticastFabric
    transport: _ShardTransport

    def __init__(
        self,
        topo: Topology,
        smap: ShardMap,
        shard_id: int,
        seed: int = 0,
        loss_rate: float = 0.0,
        retain_trace: bool = True,
    ) -> None:
        self.smap = smap
        self.shard_id = shard_id
        #: Cross-segment sends of the current window, exchanged at barriers.
        self.outbox: List[Descriptor] = []
        self._uid_counters: Dict[str, "itertools.count[int]"] = {}
        sim = ShardSimulator()
        super().__init__(
            topo,
            seed=seed,
            loss_rate=loss_rate,
            trace=ShardTrace(sim, retain=retain_trace),
            sim=sim,
        )

    def _make_fabrics(self, *args: object) -> Tuple[_ShardMulticastFabric, _ShardTransport]:
        return _ShardMulticastFabric(self, *args), _ShardTransport(self, *args)

    # ------------------------------------------------------------------
    # Ownership / identity
    # ------------------------------------------------------------------
    def owns(self, host: str) -> bool:
        return self.smap.owns(self.shard_id, host)

    def uid_alloc(self, node_id: str) -> Callable[[], int]:
        """Per-node update-uid allocator (see ``UpdateManager.new_uid``).

        The plain kernel's process-global counter is execution-order
        dependent (and collides across worker processes); here node rank
        tags the high bits so uids are globally unique and identical for
        every shard count and process layout.
        """
        rank = self.smap.host_rank[node_id]
        counter = self._uid_counters.setdefault(node_id, itertools.count(1))

        def alloc() -> int:
            return (rank << 32) | next(counter)

        return alloc

    # ------------------------------------------------------------------
    # Stochastic processes (per-destination-segment streams)
    # ------------------------------------------------------------------
    def select_streams(self, segment: int) -> random.Random:
        """Draw the next deliveries into ``segment`` from its own streams.

        Returns the loss stream (``shard.loss.<segment>``) and points the
        fault plan, which draws from its own ``rng``, at the chaos one
        (``shard.chaos.<segment>``).
        """
        if self.fault_plan is not None:
            self.fault_plan.rng = self.rng.stream(f"shard.chaos.{segment}")
        return self.rng.stream(f"shard.loss.{segment}")

    # ------------------------------------------------------------------
    # Failure injection (applied on every shard by the runner's ops)
    # ------------------------------------------------------------------
    # Every shard updates its topology replica; only one records the
    # event, so the merged trace carries it once.  A non-owner holds no
    # subscriptions or bindings of the host, so the replica flag is all
    # it has to touch.
    def crash_host(self, host: str) -> None:
        if self.owns(host):
            super().crash_host(host)
        else:
            self.topo.set_up(host, False)

    def recover_host(self, host: str) -> None:
        if self.owns(host):
            super().recover_host(host)
        else:
            self.topo.set_up(host, True)

    def fail_device(self, device: str) -> None:
        if self.shard_id == 0:
            super().fail_device(device)
        else:
            self.topo.set_up(device, False)

    def recover_device(self, device: str) -> None:
        if self.shard_id == 0:
            super().recover_device(device)
        else:
            self.topo.set_up(device, True)

    # ------------------------------------------------------------------
    # Barrier hooks used by the runner
    # ------------------------------------------------------------------
    def take_outbox(self) -> List[Descriptor]:
        out = self.outbox
        self.outbox = []
        return out

    def evaluate(self, descriptors: List[Descriptor]) -> None:
        """Apply a merged, sorted descriptor stream to local receivers."""
        mc = self.multicast_fabric
        uc = self.transport
        for d in descriptors:
            if d.packet.channel is not None:
                mc.evaluate(d)
            else:
                uc.evaluate(d)
