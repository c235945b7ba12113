"""Wiring: the flat instrument bundle and how a Network gets one.

Every hot-path component (multicast fabric, unicast transport, protocol
nodes, chaos runner) reads instruments off one shared
:class:`Instruments` object.  By default that object is :data:`NOOP` —
every attribute a module-level no-op singleton — so an uninstrumented
run pays one no-op method call per counted event and nothing else (the
``Trace.enabled`` pattern, applied to metrics).

:func:`enable_observability` swaps the no-ops for real instruments
registered in a :class:`~repro.obs.registry.MetricsRegistry` and returns
an :class:`ObsHandle` for sampling kernel gauges and exporting.
Instrumentation never draws randomness, never schedules protocol work,
and never mutates protocol state, so enabling it cannot move a single
trace event (covered by the determinism-guard tests).

Each protocol-engine instrument increments at exactly **one** site, on
the role boundary that owns the event (``repro.core.roles``; the fabric
and transport instruments live in ``repro.net``):

======================  ===============================================
instrument              owning module (single increment site)
======================  ===============================================
``hb_tx``               ``roles.announcer`` — heartbeat publish
``hb_rx``               ``roles.receiver`` — channel dispatch
``hb_rx_fast``          ``roles.receiver`` — interned no-change path
``sync_resps``          ``roles.receiver`` — sync response arrival
``updates_tx``          ``roles.informer`` — update publish
``updates_rx``          ``roles.informer`` — update arrival
``update_ops``          ``roles.informer`` — ops applied
``piggyback_recovered`` ``roles.informer`` — gap recovery
``syncs_sent``          ``roles.informer`` — sync request (post limit)
``sync_snapshot``       ``roles.informer`` — snapshot size histogram
``elections``           ``roles.contender`` — leadership won
``stepdowns``           ``roles.contender`` — two-leaders rule
``member_up``           ``protocols.base`` — shared emit helper
``member_down``         ``protocols.base`` — shared emit helper
``view_resets``         ``protocols.base`` — daemon (re)start
``wire_errors``         ``runtime.anet`` — undecodable datagram dropped
``send_errors``         ``runtime.anet`` — send refused/errored
``relay_failovers``     ``runtime.anet`` — relay candidate switch
``frag_drops``          ``runtime.anet`` — reassembly buffer dropped
``decode_memo_hits``    ``runtime.anet`` — datagram served by the decode memo
``decode_memo_misses``  ``runtime.anet`` — datagram strictly decoded
======================  ===============================================

The baselines (all-to-all, gossip) go through the shared
``protocols.base`` helpers only, so their counts stay comparable.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.exporters import to_json, to_prometheus
from repro.obs.registry import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
)

__all__ = ["Instruments", "NOOP", "ObsHandle", "enable_observability", "disable_observability"]


class _NullFamily:
    """No-op labeled family: every labelset resolves to the null counter."""

    __slots__ = ()

    def labels(self, **_labels: str):
        return NULL_COUNTER


_NULL_FAMILY = _NullFamily()

#: (attr, metric name, kind, help) — the protocol surface in one table.
_SPEC = [
    # delivery engine
    ("mc_tx", "repro_multicast_tx_packets_total", "counter",
     "multicast packets sent (post scope, pre loss)"),
    ("mc_deliveries", "repro_multicast_deliveries_total", "counter",
     "scheduled multicast receiver deliveries (pre loss)"),
    ("mc_drops", "repro_multicast_drops_total", "counter",
     "multicast deliveries dropped by the base loss process"),
    ("mc_rx", "repro_multicast_rx_packets_total", "counter",
     "multicast packets handed to a live subscriber handler"),
    ("uc_tx", "repro_unicast_tx_packets_total", "counter",
     "unicast datagrams sent"),
    ("uc_rx", "repro_unicast_rx_packets_total", "counter",
     "unicast datagrams delivered to a bound port"),
    ("uc_drops", "repro_unicast_drops_total", "counter",
     "unicast datagrams dropped by the base loss process"),
    ("uc_unroutable", "repro_unicast_unroutable_total", "counter",
     "unicast sends with no route (downed device or unbound address)"),
    # protocol engine
    ("hb_tx", "repro_heartbeats_tx_total", "counter",
     "heartbeats multicast by protocol nodes"),
    ("hb_rx", "repro_heartbeats_rx_total", "counter",
     "heartbeats received by protocol nodes"),
    ("hb_rx_fast", "repro_heartbeats_rx_fastpath_total", "counter",
     "heartbeats absorbed on the interned no-change fast path"),
    ("updates_tx", "repro_updates_tx_total", "counter",
     "update messages sent (originations and relays)"),
    ("updates_rx", "repro_updates_rx_total", "counter",
     "update messages received"),
    ("update_ops", "repro_update_ops_applied_total", "counter",
     "membership ops applied from update messages"),
    ("piggyback_recovered", "repro_piggyback_recovered_total", "counter",
     "lost updates recovered from piggyback (gap and duplicate paths)"),
    ("syncs_sent", "repro_sync_requests_total", "counter",
     "directory sync polls actually sent (post rate limit)"),
    ("sync_resps", "repro_sync_responses_total", "counter",
     "directory sync responses received"),
    ("member_up", "repro_member_up_total", "counter",
     "directory additions observed (member_up trace events)"),
    ("elections", "repro_elections_won_total", "counter",
     "leader elections won"),
    ("stepdowns", "repro_leader_stepdowns_total", "counter",
     "leaders stepping down (two-leaders rule)"),
    ("view_resets", "repro_view_resets_total", "counter",
     "directory wipes on daemon (re)start"),
    # real-network runtime (repro.runtime.anet)
    ("wire_errors", "repro_wire_errors_total", "counter",
     "datagrams dropped because they failed to decode"),
    ("send_errors", "repro_send_errors_total", "counter",
     "datagram sends refused or errored (oversize, OS error, ICMP report)"),
    ("relay_failovers", "repro_relay_failovers_total", "counter",
     "relay candidate switches after a health-check timeout"),
    ("frag_drops", "repro_fragment_drops_total", "counter",
     "fragment reassembly buffers dropped (missing-fragment timeout or budget eviction)"),
    ("decode_memo_hits", "repro_decode_memo_hits_total", "counter",
     "datagrams byte-identical to the sender's last decoded heartbeat (no decode)"),
    ("decode_memo_misses", "repro_decode_memo_misses_total", "counter",
     "datagrams that went through the strict decoder (rejected ones included)"),
]

_HISTOGRAMS = [
    ("mc_fanout", "repro_multicast_fanout", DEFAULT_SIZE_BUCKETS,
     "recipients per multicast send"),
    ("sync_snapshot", "repro_sync_snapshot_records", DEFAULT_SIZE_BUCKETS,
     "records per directory sync snapshot"),
    ("detection", "repro_detection_seconds", DEFAULT_TIME_BUCKETS,
     "failure detection times (scenario harnesses)"),
    ("convergence", "repro_convergence_seconds", DEFAULT_TIME_BUCKETS,
     "view convergence times (scenario harnesses)"),
]

_GAUGES = [
    ("sim_now", "repro_sim_now_seconds", "virtual clock (sampled)"),
    ("sim_events", "repro_sim_events_executed", "kernel callbacks executed (sampled)"),
    ("sim_pending", "repro_sim_pending_events", "queued kernel entries (sampled)"),
]

_FAMILIES = [
    ("member_down", "repro_member_down_total", ("reason",),
     "directory removals by reason (member_down trace events)"),
    ("chaos_violations", "repro_chaos_violations_total", ("invariant",),
     "invariant-checker violations by invariant"),
    ("fault_effects", "repro_fault_effects_total", ("effect",),
     "chaos fault-plan effects applied (drops, delays, duplicates)"),
]


class Instruments:
    """The flat bundle of every instrument the hot paths touch.

    One instance is shared by the network facade, both fabrics and all
    protocol nodes of a deployment; attribute access is the entire
    dispatch cost.  ``enabled`` lets cold paths skip building label sets
    or observations wholesale.
    """

    __slots__ = (
        ["enabled", "registry"]
        + [attr for attr, *_ in _SPEC]
        + [attr for attr, *_ in _HISTOGRAMS]
        + [attr for attr, *_ in _GAUGES]
        + [attr for attr, *_ in _FAMILIES]
    )

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry
        self.enabled = registry is not None
        if registry is None:
            for attr, *_ in _SPEC:
                setattr(self, attr, NULL_COUNTER)
            for attr, *_ in _HISTOGRAMS:
                setattr(self, attr, NULL_HISTOGRAM)
            for attr, *_ in _GAUGES:
                setattr(self, attr, NULL_GAUGE)
            for attr, *_ in _FAMILIES:
                setattr(self, attr, _NULL_FAMILY)
            return
        for attr, name, kind, help in _SPEC:
            assert kind == "counter"
            setattr(self, attr, registry.counter(name, help=help))
        for attr, name, bounds, help in _HISTOGRAMS:
            setattr(self, attr, registry.histogram(name, help=help, bounds=bounds))
        for attr, name, help in _GAUGES:
            setattr(self, attr, registry.gauge(name, help=help))
        for attr, name, labels, help in _FAMILIES:
            setattr(self, attr, registry.counter(name, help=help, labels=labels))


#: The disabled-observability singleton every component starts with.
NOOP = Instruments()


class ObsHandle:
    """What :func:`enable_observability` hands back.

    Bundles the registry, the live instruments and the network, and
    drives the only instrument that needs *pulling*: the kernel gauges
    (clock, executed events, queue depth), sampled on demand or on a
    recurring timer.
    """

    def __init__(self, network, registry: MetricsRegistry, instruments: Instruments) -> None:
        self.network = network
        self.registry = registry
        self.instruments = instruments
        self._sampler = None

    def sample_kernel(self) -> None:
        """Copy the simulator's counters into the kernel gauges."""
        sim = self.network.sim
        inst = self.instruments
        inst.sim_now.set(sim.now)
        inst.sim_events.set(sim.events_executed)
        inst.sim_pending.set(sim.pending_events)

    def start_sampler(self, period: float = 1.0) -> None:
        """Sample the kernel gauges every ``period`` virtual seconds.

        Sampling schedules kernel events but touches no RNG stream and
        no protocol state, so the protocol trace is unchanged.
        """
        if self._sampler is None:
            self._sampler = self.network.sim.call_every(period, self.sample_kernel)

    def stop_sampler(self) -> None:
        if self._sampler is not None:
            self._sampler.cancel()
            self._sampler = None

    def to_prometheus(self) -> str:
        self.sample_kernel()
        return to_prometheus(self.registry)

    def to_json(self):
        self.sample_kernel()
        return to_json(self.registry)


def enable_observability(
    network, registry: Optional[MetricsRegistry] = None
) -> ObsHandle:
    """Attach real instruments to ``network`` and everything it owns.

    Idempotent-ish: enabling twice with no registry creates a fresh
    registry and replaces the previous instruments.  Protocol nodes read
    ``network.obs`` dynamically, so enabling works before or after
    ``deploy()``.
    """
    if registry is None:
        registry = MetricsRegistry()
    instruments = Instruments(registry)
    network.obs = instruments
    network.multicast_fabric.obs = instruments
    network.transport.obs = instruments
    return ObsHandle(network, registry, instruments)


def disable_observability(network) -> None:
    """Swap the network back to the shared no-op instruments."""
    network.obs = NOOP
    network.multicast_fabric.obs = NOOP
    network.transport.obs = NOOP
