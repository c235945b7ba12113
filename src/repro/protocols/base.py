"""Common interface and configuration for all membership protocols.

Every protocol node owns a :class:`~repro.cluster.directory.Directory` (its
yellow pages), publishes a :class:`~repro.cluster.directory.NodeRecord`
about itself, and emits the trace events the experiment harness keys on:

========================  =====================================================
``member_up``             observer ``node`` added ``target`` to its directory
``member_down``           observer ``node`` removed ``target`` (failure/purge)
========================  =====================================================

Protocol code never touches ``repro.sim`` or ``repro.net`` directly: each
node owns a :class:`~repro.runtime.ports.NodeRuntime` (here the
:class:`~repro.runtime.sim.SimRuntime` adapter) for its clock, timers,
channels, unicast and observability.  The daemon lifecycle is written
once, in :meth:`MembershipNode.start` / :meth:`MembershipNode.stop`:
start bumps the incarnation, activates the runtime (new timer epoch),
resets per-run state and publishes the self record; stop silences the
node, cancels every registered timer wholesale and drops the view.
Schemes fill in the :meth:`_reset_run_state` / :meth:`_on_start` /
:meth:`_on_stop` hooks.

Packet sizing follows the paper's measurement: "The average packet size
carrying the membership information of each node is measured as 228 bytes"
(Section 6.2), so a message carrying *k* member descriptions costs
``header + k * member_size`` bytes on the wire.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Type

from repro.cluster.directory import Directory, NodeRecord
from repro.cluster.machine import MachineInfo
from repro.cluster.service import ServiceSpec
from repro.detect import FailureDetector, make_detector
from repro.net.network import Network
from repro.runtime import HEADER_SIZE, NodeRuntime, SimRuntime

__all__ = ["ProtocolConfig", "MembershipNode", "deploy"]


@dataclass(frozen=True)
class ProtocolConfig:
    """Tunables shared by the three schemes.

    Defaults reproduce the paper's evaluation settings (Section 6.2): one
    heartbeat/gossip packet per second, a node declared dead after 5
    consecutive missed heartbeats, and 228-byte member descriptions.
    """

    heartbeat_period: float = 1.0
    max_loss: int = 5
    member_size: int = 228
    max_ttl: int = 8
    #: gossip-only: fan-out per round and mistake probability bound.
    gossip_fanout: int = 1
    gossip_mistake_prob: float = 0.001
    #: failure-detection strategy (:mod:`repro.detect` registry name):
    #: ``counter`` (the paper's MAX_LOSS deadline, default), ``swim``
    #: (ping/ack + suspicion) or ``phi-accrual`` (adaptive threshold).
    detector: str = "counter"
    #: swim-only: probe round period, per-probe ack timeout, number of
    #: indirect ping-req relays, and the suspicion-to-declaration delay.
    probe_period: float = 1.0
    probe_timeout: float = 0.5
    indirect_probes: int = 3
    suspicion_timeout: float = 2.0
    #: phi-accrual-only: declaration threshold (φ = 1 ⇒ "90% sure dead",
    #: each +1 another nine) and the inter-arrival window length.
    phi_threshold: float = 8.0
    phi_window: int = 32
    #: hierarchical-only knobs live in repro.core.config.HierarchicalConfig.

    @property
    def fail_timeout(self) -> float:
        """Counter deadline: ``max_loss`` missed beats.

        This is the schemes' bookkeeping base unit (level timeouts,
        tombstone quarantines, backstops all scale off it) — **not** the
        advertised detection time, which depends on the active detector:
        use :func:`repro.detect.bounds.detection_bound` for anything
        user-facing.
        """
        return self.max_loss * self.heartbeat_period

    def message_size(self, members: int) -> int:
        """Wire size of a packet describing ``members`` nodes."""
        return HEADER_SIZE + self.member_size * members


class MembershipNode(ABC):
    """One node's protocol stack (daemon process in the paper's terms).

    Subclasses implement the lifecycle hooks and keep ``self.directory``
    equal to the node's current view.  ``stop`` models a daemon kill: all
    timers are cancelled and state dropped; a subsequent ``start``
    re-joins from scratch with a bumped incarnation.
    """

    #: Dissemination-scheme name as keyed in :data:`repro.analysis.models.
    #: MODELS`; concrete nodes set it so detector bounds
    #: (:func:`repro.detect.bounds.detection_bound`) can be quoted for the
    #: right scheme by observers that only hold node objects.
    scheme: str = "hierarchical"

    def __init__(
        self,
        network: Optional[Network],
        node_id: str,
        config: Optional[ProtocolConfig] = None,
        services: Sequence[ServiceSpec] = (),
        machine: Optional[MachineInfo] = None,
        runtime: Optional[NodeRuntime] = None,
    ) -> None:
        self.network = network
        self.node_id = node_id
        self.config = config if config is not None else ProtocolConfig()
        self.machine = machine if machine is not None else MachineInfo()
        self._services: Dict[str, ServiceSpec] = {s.name: s for s in services}
        self._extra_attrs: Dict[str, str] = {}
        self.incarnation = 0
        self.running = False
        # The runtime seam: protocol stacks talk only to the NodeRuntime
        # ports, so the same stack runs under the simulator (default) or a
        # real transport (``repro.runtime.anet.AsyncRuntime``).  When a
        # runtime is injected, ``network`` may be None.
        self.runtime: NodeRuntime = (
            runtime if runtime is not None else SimRuntime(network, node_id)
        )
        self.directory = Directory(node_id, self.runtime.slot_table)
        self.rng = self.runtime.rng_stream(f"proto.{node_id}")
        # The detection seam: the strategy named by ``config.detector``
        # decides when silence becomes a death declaration.  Schemes
        # attach their prober/membership ports in ``_wire_detector``.
        self.detector: FailureDetector = make_detector(self.config, self.runtime)
        self._wire_detector()
        self._self_record_cache: Optional[NodeRecord] = None

    # ------------------------------------------------------------------
    # Self description
    # ------------------------------------------------------------------
    def self_record(self) -> NodeRecord:
        """The record this node currently publishes about itself.

        The frozen record is interned until either the
        published content changes (:meth:`_self_changed`) or the
        incarnation moves — a heartbeat sender then reuses one object per
        boot epoch instead of allocating one per period, which also lets
        receivers dedupe by identity.
        """
        cached = self._self_record_cache
        if cached is not None and cached.incarnation == self.incarnation:
            return cached
        record = NodeRecord(
            node_id=self.node_id,
            incarnation=self.incarnation,
            services={name: spec.partitions for name, spec in self._services.items()},
            attrs={**self.machine.to_attrs(), **self._extra_attrs},
        )
        self._self_record_cache = record
        return record

    def register_service(self, spec: ServiceSpec) -> None:
        """Publish a service through the membership protocol (MService API)."""
        self._services[spec.name] = spec
        self._self_record_cache = None
        if self.running:
            self._self_changed()

    def unregister_service(self, name: str) -> None:
        self._services.pop(name, None)
        self._self_record_cache = None
        if self.running:
            self._self_changed()

    def update_value(self, key: str, value: str) -> None:
        """Publish a key-value pair (``MService::update_value``)."""
        self._extra_attrs[key] = value
        self._self_record_cache = None
        if self.running:
            self._self_changed()

    def delete_value(self, key: str) -> None:
        self._extra_attrs.pop(key, None)
        self._self_record_cache = None
        if self.running:
            self._self_changed()

    def _self_changed(self) -> None:
        """Hook: the published self-record changed while running."""
        self._self_record_cache = None
        self.directory.upsert(self.self_record(), self.runtime.now)

    # ------------------------------------------------------------------
    # Lifecycle (written once; schemes fill in the hooks)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Join the protocol: new incarnation, fresh view, scheme hooks."""
        if self.running:
            return
        self.running = True
        self.incarnation += 1
        self.runtime.activate()
        # Detector first: its state must be clean before the scheme's
        # reset hook replays initial observations (gossip's own counter).
        # The default CounterDetector is inert here — no timers, no RNG —
        # so the golden seeded traces are unchanged.
        self.detector.start()
        self._reset_run_state()
        self.directory.clear()
        self.directory.upsert(self.self_record(), self.runtime.now)
        self._emit_view_reset()
        self._on_start()

    def stop(self) -> None:
        """Kill the daemon: go silent, cancel all timers, drop state."""
        if not self.running:
            return
        self.running = False
        self._on_stop()
        self.detector.stop()
        self.runtime.deactivate()
        self.directory.clear()

    def _reset_run_state(self) -> None:
        """Hook: forget scheme state from a previous run (before the view
        is rebuilt).  Runs with ``running``/``incarnation`` already set."""

    # ------------------------------------------------------------------
    # Failure-detection seam
    # ------------------------------------------------------------------
    def _wire_detector(self) -> None:
        """Hook: attach scheme ports (prober, members) to ``self.detector``.

        Called from ``__init__`` (before scheme state exists — attach
        closures, not snapshots) and again after every
        :meth:`rebuild_detector`.
        """

    def rebuild_detector(self) -> None:
        """Swap in a fresh detector built from the current ``config``.

        Used by the control plane when ``detector`` or a detector knob
        changes at runtime; safe mid-run — the old strategy's timers are
        cancelled and the new one starts cold (it re-learns liveness from
        the next observations, with the counter deadline as fallback).
        """
        was_running = self.running
        if was_running:
            self.detector.stop()
        self.detector = make_detector(self.config, self.runtime)
        self._wire_detector()
        self._on_detector_rebuilt()
        if was_running:
            self.detector.start()

    def _on_detector_rebuilt(self) -> None:
        """Hook: scheme re-points any cached detector references."""

    def apply_config(self, config: "ProtocolConfig") -> None:
        """Adopt a new (replaced) config, rebuilding the detector.

        The runtime control plane replaces the frozen config dataclass;
        schemes that denormalise the config elsewhere override this to
        re-point those references too.
        """
        self.config = config
        self.rebuild_detector()

    @abstractmethod
    def _on_start(self) -> None:
        """Hook: bind channels/ports and arm timers for the new run."""

    @abstractmethod
    def _on_stop(self) -> None:
        """Hook: unbind channels/ports; timers die with the runtime."""

    # ------------------------------------------------------------------
    # View helpers used by experiments
    # ------------------------------------------------------------------
    def view(self) -> List[str]:
        """Sorted node ids currently believed alive."""
        return list(self.directory.members())

    def knows(self, node_id: str) -> bool:
        return node_id in self.directory

    # ------------------------------------------------------------------
    # Trace hooks (shared vocabulary across protocols)
    # ------------------------------------------------------------------
    def _emit_view_reset(self) -> None:
        """Trace that this node's directory was wiped (daemon [re]start).

        Metric reconstruction needs it: without the reset marker a
        restarted node would appear to still hold its pre-crash view.
        """
        self.runtime.obs.view_resets.inc()
        self.runtime.emit("view_reset")

    def _emit_member_up(self, target: str) -> None:
        self.runtime.obs.member_up.inc()
        self.runtime.emit_view_events("member_up", (target,))

    def _emit_member_down(self, target: str, reason: str = "timeout") -> None:
        self.runtime.obs.member_down.labels(reason=reason).inc()
        self.runtime.emit("member_down", target=target, reason=reason)


def deploy(
    node_cls: Type[MembershipNode],
    network: Network,
    hosts: Iterable[str],
    config: Optional[ProtocolConfig] = None,
    services: Optional[Dict[str, Sequence[ServiceSpec]]] = None,
    start: bool = True,
    **node_kwargs: object,
) -> Dict[str, MembershipNode]:
    """Instantiate (and optionally start) one protocol node per host.

    ``services`` optionally maps host -> service specs to export.  Extra
    keyword arguments are forwarded to the node constructor, letting
    callers pass scheme-specific options (e.g. gossip seeds).
    """
    nodes: Dict[str, MembershipNode] = {}
    for host in hosts:
        specs = (services or {}).get(host, ())
        nodes[host] = node_cls(
            network, host, config=config, services=specs, **node_kwargs
        )
    if start:
        for node in nodes.values():
            node.start()
    return nodes
