"""TTL-scoped multicast fabric.

A *channel* models one (multicast address, port) pair.  The paper derives
all channels from a single base channel plus a TTL value ("Only a base
multicast channel needs to be specified for a cluster", Section 3.1.1), so
protocol code names channels as strings like ``"base:L0"``, ``"base:L2"``.

Delivery semantics: a packet sent by host *h* on channel *c* with TTL *t*
is delivered to every **subscribed, live** host *s ≠ h* whose
``ttl_distance(h, s) ≤ t`` over currently-live devices.  Each receiver
independently suffers the loss process — exactly the paper's UDP multicast
failure model ("it is possible these packets can be lost due to network
congestion or overloading senders or receivers").

Delivery plans
--------------
``send()`` resolves its recipients through a **delivery plan** cached per
``(channel, src, ttl)``: the ordered list of ``(host, handler, delay)``
triples a send from that key fans out to.  The whole cache is dropped
only when ``Topology.route_version`` moves (a switch, router, link or
multi-homed host changed, so any route may have).  Everything else is
patched into the cached plans of the one channel it touches:

* a removal — ``unsubscribe``, ``unsubscribe_all``, or a subscribed
  leaf host going down (``Topology.watch_leaf_hosts``) — deletes the
  host from each plan;
* a handler replacement swaps the handler in place;
* a new subscription is picked up lazily: a plan behind the channel's
  subscription version evaluates only the subscriptions that joined
  after it (the tail of the subscription dict, which is in join order);
* a subscribed leaf host coming back up drops the plans that already
  went past its join, so they are rebuilt with it in place.

A patch builds fresh bucket objects, so in-flight deliveries holding the
old ones never see a change.  Recipients are grouped by identical delay
and each group is scheduled as **one** kernel event
(:meth:`Simulator.call_at_batch`) that loops over the receivers, cutting
heap traffic from O(receivers) to O(distinct delays) per send.

Determinism contract: recipients appear in the plan in subscription
(dict insertion) order and loss draws are taken in that order at send
time; the golden SHA-256 traces of the determinism guard pin the
resulting RNG stream (see docs/PERFORMANCE.md).

Chaos faults
------------
An installed :class:`~repro.net.faults.FaultPlan` (``fault_plan``) is
consulted per (packet, receiver) after the base loss draw, again in
plan order, and may drop, delay, duplicate or reorder the delivery (see
docs/FAULTS.md).
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.net.bandwidth import BandwidthMeter
from repro.net.faults import FaultPlan
from repro.net.packet import Packet
from repro.net.topology import Topology
from repro.obs.wiring import NOOP, Instruments
from repro.sim.engine import Simulator

__all__ = ["MulticastFabric"]

Handler = Callable[[Packet], None]

#: One delay bucket of a cached fan-out: (delay, (host, handler) pairs in
#: plan order, the hosts alone, the handlers alone — both in the same
#: order, prebuilt for metering and dispatch — and a mutable box
#: ``[meter_epoch, pending]`` caching the meter's deferred-accounting
#: handle for this bucket's receiver cells).
_Bucket = Tuple[float, List[Tuple[str, Handler]], List[str], List[Handler], list]

#: Ordered ``(host, handler, delay)`` recipients of one cached fan-out.
_Recipients = List[Tuple[str, Handler, float]]


class _Plan:
    """One cached fan-out, rewritten in place by the patches.

    ``sub_version`` is the channel subscription version the plan
    reflects: every subscription that joined at or before it has been
    evaluated, and removals and handler swaps are patched in as they
    happen.  ``recipients`` is plan-private; ``buckets`` (the recipients
    grouped by delay) is replaced whole, never mutated, whenever its
    content changes.
    """

    __slots__ = ("sub_version", "recipients", "buckets")

    def __init__(self, sub_version: int, recipients: _Recipients) -> None:
        self.sub_version = sub_version
        self.recipients = recipients
        self.buckets = _bucketize(recipients)


def _bucketize(recipients: _Recipients) -> Tuple[_Bucket, ...]:
    """Fresh delay buckets for ``recipients``, in first-seen delay order."""
    by_delay: Dict[float, _Bucket] = {}
    for host, handler, delay in recipients:
        bucket = by_delay.get(delay)
        if bucket is None:
            by_delay[delay] = (delay, [(host, handler)], [host], [handler], [])
        else:
            bucket[1].append((host, handler))
            bucket[2].append(host)
            bucket[3].append(handler)
    return tuple(by_delay.values())


class MulticastFabric:
    """Routes multicast packets to TTL-reachable subscribers.

    Parameters
    ----------
    sim, topo, meter:
        Simulation kernel, device graph, and bandwidth accounting.
    loss_rate:
        Per-receiver independent drop probability.  ``1.0`` (total loss)
        is legal — experiments blacking out the whole fabric are a
        legitimate fault scenario.
    loss_rng:
        Seeded stream used for drops.  Required whenever
        ``loss_rate > 0``: a lossy configuration without a stream used to
        silently run lossless, which turned intended loss experiments
        into clean runs — it now raises instead.
    proc_delay:
        Fixed receive-path processing delay added to topology latency.
    """

    def __init__(
        self,
        sim: Simulator,
        topo: Topology,
        meter: BandwidthMeter,
        loss_rate: float = 0.0,
        loss_rng: Optional[random.Random] = None,
        proc_delay: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in [0, 1], got {loss_rate}")
        if loss_rate > 0.0 and loss_rng is None:
            raise ValueError(
                "loss_rate > 0 requires a seeded loss_rng; a missing stream "
                "used to silently disable the loss process"
            )
        self.sim = sim
        self.topo = topo
        self.meter = meter
        self.loss_rate = loss_rate
        self.loss_rng = loss_rng
        self.proc_delay = proc_delay
        #: Optional chaos fault plan (installed via Network.set_fault_plan).
        self.fault_plan: Optional[FaultPlan] = None
        #: Shared instruments; no-op until observability is enabled.
        self.obs: Instruments = NOOP
        # channel -> host -> handler
        self._subs: Dict[str, Dict[str, Handler]] = defaultdict(dict)
        # channel -> version, bumped on any subscription change to that channel
        self._sub_version: Dict[str, int] = defaultdict(int)
        # channel -> host -> subscription version at which it joined.  The
        # subs dict is in join order, so the subscriptions a plan has not
        # evaluated yet are exactly the dict's tail that joined after it.
        self._joined: Dict[str, Dict[str, int]] = defaultdict(dict)
        # (channel, src, ttl) -> plan, and the same plans by channel (what
        # a patch walks).  Valid while _plans_route_version holds.
        self._plans: Dict[Tuple[str, str, int], _Plan] = {}
        self._channel_plans: Dict[str, Dict[Tuple[str, int], _Plan]] = defaultdict(dict)
        self._plans_route_version = topo.route_version
        topo.watch_leaf_hosts(self._leaf_flipped)

    # ------------------------------------------------------------------
    # Membership of channels
    # ------------------------------------------------------------------
    def subscribe(self, channel: str, host: str, handler: Handler) -> None:
        """Join ``host`` to ``channel``; replaces any previous handler."""
        subs = self._subs[channel]
        before = self._sub_version[channel]
        self._sub_version[channel] = before + 1
        replacing = host in subs
        subs[host] = handler  # a replacement keeps its place in the dict
        if replacing:
            self._patch(channel, host, handler, before)
        else:
            self._joined[channel][host] = before + 1

    def unsubscribe(self, channel: str, host: str) -> None:
        subs = self._subs.get(channel)
        if subs is not None and host in subs:
            self._remove(channel, subs, host)

    def unsubscribe_all(self, host: str) -> None:
        """Used when a host crashes: it stops hearing everything."""
        for channel, subs in self._subs.items():
            if host in subs:
                self._remove(channel, subs, host)

    def _remove(self, channel: str, subs: Dict[str, Handler], host: str) -> None:
        del subs[host]
        del self._joined[channel][host]
        before = self._sub_version[channel]
        self._sub_version[channel] = before + 1
        self._patch(channel, host, None, before)

    def subscribers(self, channel: str) -> list[str]:
        return sorted(self._subs.get(channel, {}))

    # ------------------------------------------------------------------
    # Delivery plans
    # ------------------------------------------------------------------
    def _plan(
        self, channel: str, src: str, ttl: int
    ) -> Tuple[_Recipients, Tuple[_Bucket, ...]]:
        """Recipients of a (channel, src, ttl) send, in subscription order.

        Returns the flat recipient list plus the same recipients grouped
        by identical delay (the shape a lossless send schedules
        directly).  Only a live ``src`` has a plan (``send`` asks for no
        other); a cached one is kept while its sender is down, patched
        like any other, and is exact again when the sender returns.
        """
        topo = self.topo
        if topo.route_version != self._plans_route_version:
            # A switch/router/link change may move TTL distances for
            # every cached key, so the whole plan cache is stale at once.
            self._plans.clear()
            self._channel_plans.clear()
            self._plans_route_version = topo.route_version
        key = (channel, src, ttl)
        sub_version = self._sub_version[channel]
        plan = self._plans.get(key)
        if plan is not None and plan.sub_version == sub_version:
            return plan.recipients, plan.buckets
        if not topo.is_up(src):
            return [], ()
        subs = self._subs.get(channel, {})
        if plan is None:
            candidates: Iterable[Tuple[str, Handler]] = subs.items()
        else:
            # Only subscriptions that joined after the plan: the dict's tail.
            joined = self._joined[channel]
            newer: List[Tuple[str, Handler]] = []
            for host in reversed(subs):
                if joined[host] <= plan.sub_version:
                    break
                newer.append((host, subs[host]))
            candidates = reversed(newer)
        # One fused (ttl, latency) query per candidate: plan building is
        # n^2-scale on cluster-wide channels during a mass join, and the
        # two quantities come out of the same routing cell anyway.
        route = self._plan_route()
        proc_delay = self.proc_delay
        added: _Recipients = []
        for host, handler in candidates:
            if host == src:
                continue
            hops, lat = route(src, host)
            if hops > ttl:
                continue
            added.append((host, handler, lat + proc_delay))
        if plan is None:
            plan = self._plans[key] = _Plan(sub_version, added)
            self._channel_plans[channel][(src, ttl)] = plan
        else:
            plan.sub_version = sub_version
            if added:
                plan.recipients.extend(added)
                plan.buckets = _bucketize(plan.recipients)
        return plan.recipients, plan.buckets

    def _patch(
        self, channel: str, host: str, handler: Optional[Handler], before: int
    ) -> None:
        """Remove ``host`` (``handler=None``) or swap in its new handler.

        Applied to every cached plan of ``channel``; a plan that was
        current at subscription version ``before`` stays current.
        """
        after = self._sub_version[channel]
        for plan in self._channel_plans.get(channel, {}).values():
            recipients = plan.recipients
            for i, entry in enumerate(recipients):
                if entry[0] != host:
                    continue
                if handler is None:
                    patched = recipients[:i] + recipients[i + 1 :]
                elif entry[1] is handler:
                    break
                else:
                    patched = recipients[:]
                    patched[i] = (host, handler, entry[2])
                plan.recipients = patched
                plan.buckets = _bucketize(patched)
                break
            if plan.sub_version == before:
                plan.sub_version = after

    def _leaf_flipped(self, host: str) -> None:
        """Topology callback: simple-leaf ``host`` went down or came up.

        Routes between other hosts are untouched, so only ``host`` as a
        recipient of the channels it is still subscribed to changes.
        """
        up = self.topo.is_up(host)
        for channel, subs in self._subs.items():
            if host not in subs:
                continue
            if not up:
                self._patch(channel, host, None, self._sub_version[channel])
                continue
            # Back up: plans that evaluated it while it was down left it
            # out; rebuild those (the rest reach it in their tail).
            joined = self._joined[channel][host]
            plans = self._channel_plans.get(channel, {})
            stale = [
                (src, ttl)
                for (src, ttl), plan in plans.items()
                if plan.sub_version >= joined and src != host
            ]
            for src, ttl in stale:
                del plans[(src, ttl)]
                del self._plans[(channel, src, ttl)]

    def _plan_route(self) -> Callable[[str, str], Tuple[float, float]]:
        """The ``(ttl distance, latency)`` query one plan build scopes with.

        Looked up once per build, not per candidate.  The sharded fabric
        narrows it to the sender's segment (``repro.shard.netshard``).
        """
        return self.topo.mc_route

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> int:
        """Multicast ``packet`` on ``packet.channel`` with ``packet.ttl``.

        Returns the number of deliveries scheduled (post-scope, pre-loss).
        A downed sender transmits nothing.
        """
        if packet.channel is None:
            raise ValueError("multicast send requires packet.channel")
        if not self.topo.is_up(packet.src):
            return 0
        self.meter.record(self.sim.now, packet.src, "tx", packet.kind, packet.size)
        obs = self.obs
        obs.mc_tx.inc()
        recipients, plan_buckets = self._plan(packet.channel, packet.src, packet.ttl)
        obs.mc_fanout.observe(len(recipients))
        if not recipients:
            return 0
        obs.mc_deliveries.add(len(recipients))
        fault = self.fault_plan
        if fault is not None and fault.rules:
            return self._send_chaos(packet, recipients, fault)
        # The stamp lets delivery skip per-receiver revalidation: if neither
        # the topology nor the channel's subscriptions moved while the
        # packet was in flight, every planned receiver is provably still up
        # and still holds the same handler.
        stamp = (self.topo.version, self._sub_version[packet.channel])
        now = self.sim.now
        if self.loss_rng is not None and self.loss_rate > 0.0:
            # Group survivors by identical delay; loss is drawn in plan
            # (= subscription) order — the RNG stream the golden traces pin.
            rand = self.loss_rng.random
            rate = self.loss_rate
            dropped = 0
            buckets: Dict[float, List[Tuple[str, Handler]]] = {}
            for host, handler, delay in recipients:
                if rand() < rate:
                    dropped += 1
                    continue
                bucket = buckets.get(delay)
                if bucket is None:
                    buckets[delay] = [(host, handler)]
                else:
                    bucket.append((host, handler))
            if dropped:
                obs.mc_drops.add(dropped)
            for delay, bucket in buckets.items():
                # owned=True: the handle is discarded here, so the kernel
                # may recycle the event object through its free-list after
                # firing.
                self.sim.call_at_batch(
                    now + delay, self._deliver_batch, bucket, packet, stamp,
                    owned=True,
                )
        else:
            # Lossless: the plan's precomputed buckets are the delivery
            # schedule verbatim — nothing per-receiver happens at send time.
            for bucket in plan_buckets:
                self.sim.call_at_batch(
                    now + bucket[0], self._deliver_planned, bucket, packet, stamp,
                    owned=True,
                )
        return len(recipients)

    def _send_chaos(
        self,
        packet: Packet,
        recipients: List[Tuple[str, Handler, float]],
        fault: FaultPlan,
    ) -> int:
        """Send under an active fault plan.

        Same bucketed scheduling as a plain send, but each receiver's
        total delay folds in the plan's verdict (drop / extra delay /
        duplicate copies).  Base loss and fault draws both happen in plan
        (= subscription) order, receiver by receiver: loss first, then
        the fault verdict.
        """
        now = self.sim.now
        src = packet.src
        lossy = self.loss_rng is not None and self.loss_rate > 0.0
        rand = self.loss_rng.random if lossy else None
        rate = self.loss_rate
        stamp = (self.topo.version, self._sub_version[packet.channel])
        buckets: Dict[float, List[Tuple[str, Handler]]] = {}
        dropped = 0
        for host, handler, delay in recipients:
            if lossy and rand() < rate:
                dropped += 1
                continue
            offsets = fault.offsets(src, host, now)
            if offsets is None:
                buckets.setdefault(delay, []).append((host, handler))
                continue
            for off in offsets:
                buckets.setdefault(delay + off, []).append((host, handler))
        if dropped:
            self.obs.mc_drops.add(dropped)
        for delay, bucket in buckets.items():
            self.sim.call_at_batch(
                now + delay, self._deliver_batch, bucket, packet, stamp,
                owned=True,
            )
        return len(recipients)

    def _deliver_batch(
        self,
        recipients: List[Tuple[str, Handler]],
        packet: Packet,
        stamp: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Deliver one delay bucket: validate, account once, then dispatch.

        Hosts may have crashed or left the channel while in flight, so each
        is re-validated at delivery time — unless ``stamp`` proves nothing
        could have changed: if both the topology version and the channel's
        subscription version still match their send-time values, every
        planned receiver is still up and still bound to the same handler,
        and the scan is skipped.
        Receive-side metering for the whole bucket lands in a single
        :meth:`BandwidthMeter.record_many` call.
        """
        if (
            stamp is not None
            and stamp[0] == self.topo.version
            and stamp[1] == self._sub_version[packet.channel]
        ):
            live = recipients
        else:
            subs = self._subs.get(packet.channel, {})
            is_up = self.topo.is_up
            live = [
                (host, handler)
                for host, handler in recipients
                if is_up(host) and subs.get(host) is handler
            ]
            if not live:
                return
        hosts = [host for host, _handler in live]
        self.meter.record_many(self.sim.now, hosts, "rx", packet.kind, packet.size)
        self.obs.mc_rx.add(len(live))
        for _host, handler in live:
            handler(packet)

    def _deliver_planned(
        self,
        bucket: _Bucket,
        packet: Packet,
        stamp: Tuple[int, int],
    ) -> None:
        """Deliver a cached plan bucket with flat per-receiver cost.

        A lossless send schedules the plan's own buckets, so the
        receiver pairs, the host list, and (via the bucket's mutable box)
        the meter's deferred-accounting handle are all reused across
        deliveries of the same plan.  When the stamp holds, per-receiver
        work is exactly one handler call — metering for the whole bucket
        is one O(1) :meth:`BandwidthMeter.record_pending` note, folded
        into the per-host cells lazily before any meter read.  A stale
        stamp falls back to the fully revalidating batch path.
        """
        if (
            stamp[0] != self.topo.version
            or stamp[1] != self._sub_version[packet.channel]
        ):
            self._deliver_batch(bucket[1], packet)
            return
        _delay, pairs, hosts, handlers, box = bucket
        meter = self.meter
        if meter.keep_series:
            # Series samples need host names, so take the generic path.
            meter.record_many(self.sim.now, hosts, "rx", packet.kind, packet.size)
        else:
            if not box or box[0] != meter.epoch:
                cells = meter.batch_cells(hosts, "rx")
                box[:] = (meter.epoch, meter.open_pending(cells))
            meter.record_pending(box[1], self.sim.now, packet.kind, packet.size)
        self.obs.mc_rx.add(len(pairs))
        for handler in handlers:
            handler(packet)
