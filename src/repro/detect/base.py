"""The failure-detector strategy interface and its probe wire helpers.

A :class:`FailureDetector` answers one question for the roles that own
liveness bookkeeping — *which of these peers should be declared dead
now?* — and is fed two kinds of evidence: heartbeat observations from
the scheme's receive path and ack observations from its own probe
traffic.  The split mirrors the repo's other port layers: schemes keep
their freshness bookkeeping (``PeerState.last_heard``, directory
refresh times) and delegate the *decision*; detectors keep their own
soft state (suspicions, inter-arrival windows) and never touch scheme
structures beyond the read-only views passed into the query methods.

Scopes
------
Every observation and query carries a ``scope`` — the hierarchical
scheme passes the channel level (an ``int``), the flat schemes pass a
constant string.  Passive detectors may ignore it; adaptive ones key
their per-peer state on ``(scope, peer)`` so one peer's cadence on a
level-0 channel never pollutes its model on a level-1 channel.

Determinism contract
--------------------
The default :class:`~repro.detect.counter.CounterDetector` is *passive*:
its hooks are never called on the hot receive path, it owns no timers
and draws no randomness, which is what keeps the five golden SHA-256
traces byte-identical across the refactor.  Active detectors schedule
probes through the epoch-guarded :class:`~repro.runtime.ports.NodeRuntime`
timers and draw targets from a dedicated named RNG stream
(``detect.<name>.<node>``), so seeded runs stay deterministic without
perturbing any pre-existing stream.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING,
    Callable,
    ClassVar,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Union,
)

from repro.runtime.ports import HEADER_SIZE

if TYPE_CHECKING:
    from repro.cluster.directory import Directory
    from repro.core.groups import GroupState, PeerState
    from repro.net.packet import Packet
    from repro.protocols.base import ProtocolConfig
    from repro.runtime.ports import NodeRuntime

__all__ = ["Scope", "Prober", "FailureDetector", "UnicastProber", "handle_probe_packet"]

#: Observation/query scope: a channel level (hierarchical) or a scheme tag.
Scope = Union[int, str]

#: Wire sizes of a (direct, relayed or indirect) probe and of its ack.
PROBE_SIZE = HEADER_SIZE + 16
ACK_SIZE = HEADER_SIZE + 8


class Prober(Protocol):
    """Outbound port for detector-initiated traffic (SWIM pings).

    Implementations wrap :meth:`~repro.runtime.ports.NodeRuntime.send`
    on a scheme-chosen unicast port; the return value is the transport's
    *accepted-for-send* verdict, never a delivery report.
    """

    def ping(self, target: str) -> bool:
        """Direct liveness probe; the target acks the origin."""
        ...

    def ping_req(self, relay: str, target: str) -> bool:
        """Ask ``relay`` to probe ``target`` on our behalf (SWIM ping-req)."""
        ...


class FailureDetector(ABC):
    """Strategy deciding when silence becomes a death declaration.

    Lifecycle: constructed with the node's config and runtime, optionally
    :meth:`attach`-ed to a prober and membership provider by the scheme,
    then :meth:`start`-ed/:meth:`stop`-ped in lockstep with the node.
    ``stop()`` must cancel every timer the detector created and drop all
    soft state — a detector outliving its node's life would probe ghosts.
    """

    #: registry name (``config.detector`` value selecting this strategy)
    name: ClassVar[str] = ""
    #: passive detectors piggyback on the scheme's own freshness
    #: bookkeeping; the receive paths skip their observation hooks
    #: entirely (the golden-trace byte-identity guarantee hangs on this).
    passive: ClassVar[bool] = True
    #: whether the detector originates probe traffic (needs a Prober and,
    #: for the flat schemes, a dedicated unicast port binding).
    uses_probes: ClassVar[bool] = False

    def __init__(self, config: "ProtocolConfig", runtime: "NodeRuntime") -> None:
        self.config = config
        self.runtime = runtime
        self.prober: Optional[Prober] = None
        self._members: Callable[[], List[str]] = list

    # ------------------------------------------------------------------
    # Wiring and lifecycle
    # ------------------------------------------------------------------
    def attach(
        self,
        prober: Optional[Prober] = None,
        members: Optional[Callable[[], List[str]]] = None,
    ) -> None:
        """Give the detector its scheme-provided ports.

        ``members`` returns the sorted probe-candidate ids (never
        including the node itself) — called lazily at each probe round so
        the detector always sees the scheme's current peer set.
        """
        if prober is not None:
            self.prober = prober
        if members is not None:
            self._members = members

    def start(self) -> None:
        """Reset soft state and (for active detectors) arm probe timers."""

    def stop(self) -> None:
        """Cancel every detector-owned timer and drop soft state."""

    # ------------------------------------------------------------------
    # Evidence
    # ------------------------------------------------------------------
    def observe_heartbeat(
        self, scope: Scope, peer_id: str, now: float, incarnation: int = 0
    ) -> None:
        """A heartbeat (or counter increase) from ``peer_id`` arrived.

        Called by the scheme's receive path **only when ``passive`` is
        False** — the hot path pre-resolves the hook once per channel
        join, so the default detector costs zero loads per delivery.
        """

    def observe_ack(self, peer_id: str, now: float) -> None:
        """A probe ack from ``peer_id`` arrived (active detectors only)."""

    def forget(self, peer_id: str, scope: Optional[Scope] = None) -> None:
        """Drop soft state about ``peer_id`` (after a purge or departure).

        With ``scope`` given only that scope's state goes; global
        suspicion/declaration state goes in either case — the peer is no
        longer the scheme's concern, so a stale verdict must not outlive
        it and re-kill the node the moment it reappears.
        """

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @abstractmethod
    def silent_peers(
        self, scope: Scope, group: "GroupState", now: float, timeout: float
    ) -> List["PeerState"]:
        """Peers of ``group`` to declare dead now (not yet removed).

        ``timeout`` is the scheme's per-scope deadline (the counter
        semantics); adaptive detectors may declare earlier on their own
        evidence but must honour plain channel silence as a fallback so
        scheme semantics built on it (leader abdication vs. death) hold.
        The caller removes the returned peers via
        :meth:`~repro.core.groups.GroupState.purge_peers`.
        """

    @abstractmethod
    def silent_ids(
        self, scope: Scope, candidates: Sequence[str], now: float, timeout: float
    ) -> List[str]:
        """Subset of ``candidates`` to declare dead now (id-keyed schemes)."""

    def purge_directory(
        self,
        scope: Scope,
        directory: "Directory",
        now: float,
        timeout: float,
        incarnations: Optional[Dict[str, int]] = None,
    ) -> List[str]:
        """Remove dead entries from a flat scheme's directory.

        Default implementation for active detectors: judge every non-owner
        entry via :meth:`silent_ids`, then remove.  The counter strategy
        overrides this with the directory's own deadline purge (the
        deadline-heap fast path the pre-refactor code used).
        """
        candidates = [nid for nid in directory.members() if nid != directory.owner]
        dead = self.silent_ids(scope, candidates, now, timeout)
        for nid in dead:
            record = directory.get(nid)
            if incarnations is not None and record is not None:
                incarnations[nid] = record.incarnation
            directory.remove(nid)
            self.forget(nid, scope)
        return dead


class UnicastProber:
    """The standard :class:`Prober`: probe datagrams on a unicast port.

    Shared by all three schemes (each passes its own port).  Probe wire
    format, sized like real SWIM probes (a header plus the origin id):

    =============  =====================================================
    ``probe``      payload ``{"origin": id}`` — direct or relayed ping;
                   the receiver acks the *origin*, not the last hop
    ``probe-req``  payload ``{"target": id, "origin": id}`` — indirect
                   probe request; the relay forwards a ``probe``
    ``probe-ack``  payload ``{}`` — liveness proof from ``packet.src``
    =============  =====================================================
    """

    def __init__(self, runtime: "NodeRuntime", port: str) -> None:
        self.runtime = runtime
        self.port = port

    def ping(self, target: str) -> bool:
        return self.runtime.send(
            target,
            kind="probe",
            payload={"origin": self.runtime.node_id},
            size=PROBE_SIZE,
            port=self.port,
        )

    def ping_req(self, relay: str, target: str) -> bool:
        return self.runtime.send(
            relay,
            kind="probe-req",
            payload={"target": target, "origin": self.runtime.node_id},
            size=PROBE_SIZE,
            port=self.port,
        )


def handle_probe_packet(
    runtime: "NodeRuntime",
    detector: FailureDetector,
    packet: "Packet",
    port: str,
) -> bool:
    """Serve the probe wire protocol; True when the packet was consumed.

    One implementation for every scheme's unicast handler: answer pings,
    forward ping-reqs (the ack goes straight back to the origin, so a
    relay never tracks in-flight probes), and feed acks to the detector.
    Payloads are plain scalars/dicts, so the same handler works across
    the wire codec under :class:`~repro.runtime.anet.AsyncRuntime`.
    """
    kind = packet.kind
    if kind == "probe":
        payload = packet.payload
        origin = payload.get("origin", packet.src) if isinstance(payload, dict) else packet.src
        runtime.send(
            str(origin),
            kind="probe-ack",
            payload={},
            size=ACK_SIZE,
            port=port,
        )
        return True
    if kind == "probe-req":
        payload = packet.payload
        if isinstance(payload, dict) and "target" in payload:
            runtime.send(
                str(payload["target"]),
                kind="probe",
                payload={"origin": payload.get("origin", packet.src)},
                size=PROBE_SIZE,
                port=port,
            )
        return True
    if kind == "probe-ack":
        detector.observe_ack(packet.src, runtime.now)
        return True
    return False
