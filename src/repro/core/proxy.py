"""The membership proxy protocol for multiple data centers (Section 3.2).

Each data center runs several **membership proxies**.  They form their own
multicast group on a channel reserved for proxies and elect a leader with
the same bully machinery as the tree protocol.  The proxy group leader:

* takes over the data center's single **external IP address** (IP
  failover) so remote data centers always talk to whoever currently leads;
* joins the local cluster membership (every proxy host also runs a normal
  :class:`~repro.core.node.HierarchicalNode`, so the leader holds the full
  local yellow pages);
* periodically unicasts **summary heartbeats** — the availability of
  services, not per-machine detail — to the other data centers' external
  addresses, splitting over multiple packets when the summary is large;
* sends an immediate **update message** to the other leaders when a local
  status change alters the summary, and relays received remote summaries
  to the local proxy group over the proxy channel;
* forwards **service invocations** for services unavailable locally
  (paper Fig. 6's six-step relay), using the remote summaries to pick a
  data center and its own consumer module to reach the remote backend.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.cluster.consumer import ConsumerModule
from repro.cluster.directory import Directory
from repro.core.config import HierarchicalConfig
from repro.core.election import Decision, decide
from repro.core.groups import GroupState
from repro.core.heartbeat import Heartbeat
from repro.core.node import HierarchicalNode
from repro.net.network import Network
from repro.net.packet import Packet
from repro.sim import Event

__all__ = ["ServiceSummary", "MembershipProxy", "ProxyConfig", "install_proxy_forwarding"]

PROXY_PORT = "proxy"
_fwd_ids = itertools.count()


@dataclass(frozen=True)
class ProxyConfig:
    """Tunables of the proxy protocol.

    ``summary_heartbeat_period`` is deliberately the same 1 Hz as the
    cluster heartbeats; ``summary_fail_timeout`` mirrors the max-loss rule.
    ``max_entries_per_packet`` implements "If the size of the membership
    summary is too big, the summary is broken into multiple heartbeat
    packets".
    """

    summary_heartbeat_period: float = 1.0
    summary_fail_timeout: float = 5.0
    max_entries_per_packet: int = 64
    entry_size: int = 48  # service name + partition bitmap, bytes
    header_size: int = 28
    forward_timeout: float = 1.0
    proxy_channel_prefix: str = "proxy"
    election_delay: float = 2.5
    heartbeat_period: float = 1.0
    fail_timeout: float = 5.0


@dataclass(frozen=True)
class ServiceSummary:
    """Availability of services in one data center: name -> partitions."""

    services: Tuple[Tuple[str, FrozenSet[int]], ...] = ()

    @classmethod
    def from_directory(cls, directory: Directory) -> "ServiceSummary":
        acc: Dict[str, set] = {}
        for record in directory.records():
            for name, parts in record.services.items():
                acc.setdefault(name, set()).update(parts)
        return cls(tuple(sorted((n, frozenset(p)) for n, p in acc.items())))

    def as_dict(self) -> Dict[str, FrozenSet[int]]:
        return dict(self.services)

    def provides(self, service: str, partition: Optional[int]) -> bool:
        for name, parts in self.services:
            if name == service and (partition is None or partition in parts):
                return True
        return False

    def __len__(self) -> int:
        return len(self.services)

    def chunks(self, max_entries: int) -> List["ServiceSummary"]:
        """Split into packet-sized summaries (at least one, possibly empty)."""
        if len(self.services) <= max_entries:
            return [self]
        return [
            ServiceSummary(self.services[i : i + max_entries])
            for i in range(0, len(self.services), max_entries)
        ]


@dataclass
class _RemoteDc:
    """What this proxy knows about one remote data center."""

    summary: Dict[str, FrozenSet[int]] = field(default_factory=dict)
    last_heard: float = float("-inf")
    epoch: int = -1  # summary generation, resets partial multi-packet state


class MembershipProxy:
    """One membership proxy daemon.

    Parameters
    ----------
    network, host, dc:
        Placement.  ``host`` must also run ``member_node`` (the local
        cluster membership stack) — a proxy is a cluster node with extra
        duties, exactly as in the paper's deployment.
    external_addr:
        The data center's shared external address (virtual IP).
    remote_addrs:
        ``dc name -> external address`` of every other data center.
    member_node:
        The co-located hierarchical membership node (source of the local
        yellow pages).
    """

    def __init__(
        self,
        network: Network,
        host: str,
        dc: str,
        external_addr: str,
        remote_addrs: Dict[str, str],
        member_node: HierarchicalNode,
        config: Optional[ProxyConfig] = None,
    ) -> None:
        self.network = network
        self.host = host
        self.dc = dc
        self.external_addr = external_addr
        self.remote_addrs = {d: a for d, a in remote_addrs.items() if d != dc}
        self.member_node = member_node
        self.config = config if config is not None else ProxyConfig()
        self.rng = network.rng.stream(f"proxy.{host}")
        self.group = GroupState(level=0)
        self.remote: Dict[str, _RemoteDc] = {}
        self.running = False
        self._summary_epoch = 0
        self._last_summary: Optional[ServiceSummary] = None
        # forwarded-invocation bookkeeping
        self._pending_out: Dict[int, Dict[str, Any]] = {}
        self._consumer: Optional[ConsumerModule] = None
        self._timers: List[Any] = []

    # ------------------------------------------------------------------
    @property
    def channel(self) -> str:
        return f"{self.config.proxy_channel_prefix}:{self.dc}"

    @property
    def is_leader(self) -> bool:
        return self.group.i_am_leader

    def known_remote_dcs(self) -> List[str]:
        """Remote data centers with a live (unexpired) summary."""
        now = self.network.now
        return sorted(
            d
            for d, r in self.remote.items()
            if now - r.last_heard <= self.config.summary_fail_timeout
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.group = GroupState(level=0)
        self.remote.clear()
        self._pending_out.clear()
        self._last_summary = None
        self.network.subscribe(self.channel, self.host, self._on_channel)
        self.network.bind(self.host, PROXY_PORT, self._on_unicast)
        self._consumer = ConsumerModule(
            self.network,
            self.host,
            self.member_node.directory,
            request_timeout=self.config.forward_timeout,
        )
        self._consumer.start()
        phase = self.rng.uniform(0, self.config.heartbeat_period)
        self._timers = [
            self.network.sim.call_after(phase, self._tick),
        ]

    def stop(self) -> None:
        if not self.running:
            return
        self.running = False
        self.group.i_am_leader = False
        self.group.my_backup = None
        self.network.unsubscribe(self.channel, self.host)
        self.network.transport.unbind(self.host, PROXY_PORT)
        if self._consumer is not None:
            self._consumer.stop()
        for t in self._timers:
            t.cancel()
        self._timers.clear()
        if self.network.transport.address_owner(self.external_addr) == self.host:
            self.network.transport.release_address(self.external_addr)
        for pending in self._pending_out.values():
            pending["timer"].cancel()
        self._pending_out.clear()

    # ------------------------------------------------------------------
    # Proxy-group membership and election
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if not self.running:
            return
        now = self.network.now
        # Heartbeat on the proxy channel.
        self.network.multicast(
            self.host,
            self.channel,
            ttl=64,  # the proxy channel is scoped by subscription, DC-wide
            kind="proxy_hb",
            payload=Heartbeat(
                record=self.member_node.self_record(),
                level=0,
                is_leader=self.group.i_am_leader,
                suppressed=self.group.suppressed,
                backup=self.group.my_backup if self.group.i_am_leader else None,
            ),
            size=self.config.header_size + 64,
        )
        # Failure detection within the proxy group.
        for peer in self.group.purge_silent(now, self.config.fail_timeout):
            if peer.is_leader and peer.backup == self.host and not self.group.i_am_leader:
                self._become_leader()
        self._evaluate_election()
        if self.group.i_am_leader:
            self._leader_duties()
        self._timers = [
            self.network.sim.call_after(self.config.heartbeat_period, self._tick)
        ]

    def _evaluate_election(self) -> None:
        decision = decide(self.group, self.host, self.network.now, self.config.election_delay)
        if decision is Decision.BECOME_LEADER:
            self._become_leader()
        elif decision is Decision.STEP_DOWN:
            self._step_down()

    def _become_leader(self) -> None:
        self.group.i_am_leader = True
        self.group.suppressed = False
        self.group.leaderless_since = None
        members = self.group.member_ids()
        self.group.my_backup = (
            members[self.rng.randrange(len(members))] if members else None
        )
        # IP failover: the leader owns the external address.
        self.network.transport.bind_address(self.external_addr, self.host)
        self.network.trace.emit(
            self.network.now, "proxy_leader", node=self.host, dc=self.dc
        )

    def _step_down(self) -> None:
        self.group.i_am_leader = False
        self.group.my_backup = None
        self.group.suppressed = True
        if self.network.transport.address_owner(self.external_addr) == self.host:
            self.network.transport.release_address(self.external_addr)

    def _on_channel(self, packet: Packet) -> None:
        if not self.running:
            return
        if packet.kind == "proxy_hb":
            hb: Heartbeat = packet.payload
            self.group.note_heartbeat(hb, self.network.now)
            self._evaluate_election()
        elif packet.kind == "proxy_relay":
            # The leader relays remote summaries to the whole proxy group
            # so a failover starts from warm state.
            payload = packet.payload
            self._merge_remote_summary(
                payload["dc"], payload["epoch"], payload["entries"], payload["final"]
            )

    # ------------------------------------------------------------------
    # Leader duties: summaries out, freshness bookkeeping
    # ------------------------------------------------------------------
    def _leader_duties(self) -> None:
        summary = ServiceSummary.from_directory(self.member_node.directory)
        if self._last_summary is not None and summary != self._last_summary:
            # Status change altered the summary: immediate update message.
            self._send_summary(summary, kind="proxy_update")
        else:
            self._send_summary(summary, kind="proxy_summary")
        self._last_summary = summary

    def _send_summary(self, summary: ServiceSummary, kind: str) -> None:
        self._summary_epoch += 1
        chunks = summary.chunks(self.config.max_entries_per_packet)
        for idx, chunk in enumerate(chunks):
            payload = {
                "dc": self.dc,
                "epoch": self._summary_epoch,
                "entries": chunk.services,
                "final": idx == len(chunks) - 1,
            }
            size = self.config.header_size + self.config.entry_size * max(1, len(chunk))
            # "Each proxy leader sends these heartbeat packets sequentially
            # to the other leaders using well-known IP addresses."
            for dc, addr in sorted(self.remote_addrs.items()):
                self.network.unicast(
                    self.host, addr, kind=kind, payload=payload, size=size, port=PROXY_PORT
                )

    # ------------------------------------------------------------------
    # Unicast: summaries in, forwarding
    # ------------------------------------------------------------------
    def _on_unicast(self, packet: Packet) -> None:
        if not self.running:
            return
        if packet.kind in ("proxy_summary", "proxy_update"):
            payload = packet.payload
            self._merge_remote_summary(
                payload["dc"], payload["epoch"], payload["entries"], payload["final"]
            )
            # Relay to the local proxy group.
            self.network.multicast(
                self.host,
                self.channel,
                ttl=64,
                kind="proxy_relay",
                payload=payload,
                size=packet.size,
            )
        elif packet.kind == "fwd_req":
            self._on_fwd_req(packet)
        elif packet.kind == "fwd_remote":
            self._on_fwd_remote(packet)
        elif packet.kind == "fwd_remote_resp":
            self._on_fwd_remote_resp(packet)

    def _merge_remote_summary(
        self,
        dc: str,
        epoch: int,
        entries: Sequence[Tuple[str, FrozenSet[int]]],
        final: bool,
    ) -> None:
        state = self.remote.setdefault(dc, _RemoteDc())
        if epoch < state.epoch:
            return  # stale chunk from an older generation
        if epoch > state.epoch:
            state.epoch = epoch
            state.summary = {}
        state.summary.update({name: parts for name, parts in entries})
        if final:
            state.last_heard = self.network.now

    # ------------------------------------------------------------------
    # Service invocation forwarding (paper Fig. 6)
    # ------------------------------------------------------------------
    def _candidate_dcs(self, service: str, partition: Optional[int]) -> List[str]:
        now = self.network.now
        out = []
        for dc in sorted(self.remote):
            state = self.remote[dc]
            if now - state.last_heard > self.config.summary_fail_timeout:
                continue
            parts = state.summary.get(service)
            if parts is None:
                continue
            if partition is None or partition in parts:
                out.append(dc)
        return out

    def _on_fwd_req(self, packet: Packet) -> None:
        """Step 2: pick a remote data center and forward, or reject."""
        payload = packet.payload
        dcs = self._candidate_dcs(payload["service"], payload["partition"])
        if not dcs:
            self._reply_fwd(payload, ok=False, value=None, error="no_remote_dc", latency=0.0)
            return
        dc = dcs[self.rng.randrange(len(dcs))]
        fwd_id = next(_fwd_ids)
        timer = self.network.sim.call_after(
            self.config.forward_timeout, self._on_fwd_timeout, fwd_id
        )
        self._pending_out[fwd_id] = {"payload": payload, "timer": timer, "t0": self.network.now}
        self.network.unicast(
            self.host,
            self.remote_addrs[dc],
            kind="fwd_remote",
            payload={
                "fwd_id": fwd_id,
                "service": payload["service"],
                "partition": payload["partition"],
                "data": payload["data"],
                "reply_addr": self.external_addr,
            },
            size=256,
            port=PROXY_PORT,
        )

    def _on_fwd_remote(self, packet: Packet) -> None:
        """Steps 3-4: serve the request from the local cluster."""
        payload = packet.payload
        completion = self._consumer.invoke(
            payload["service"], payload["partition"], payload["data"]
        )

        def respond(result: Any) -> None:
            if not self.running:
                return
            self.network.unicast(
                self.host,
                payload["reply_addr"],
                kind="fwd_remote_resp",
                payload={
                    "fwd_id": payload["fwd_id"],
                    "ok": result.ok,
                    "value": result.value,
                    "error": result.error,
                    "server": result.server,
                },
                size=512,
                port=PROXY_PORT,
            )

        completion._add_waiter(respond)

    def _on_fwd_remote_resp(self, packet: Packet) -> None:
        """Steps 5-6: relay the result back to the original requester."""
        payload = packet.payload
        pending = self._pending_out.pop(payload["fwd_id"], None)
        if pending is None:
            return
        pending["timer"].cancel()
        self._reply_fwd(
            pending["payload"],
            ok=payload["ok"],
            value=payload["value"],
            error=payload["error"],
            latency=self.network.now - pending["t0"],
            server=payload.get("server"),
        )

    def _on_fwd_timeout(self, fwd_id: int) -> None:
        pending = self._pending_out.pop(fwd_id, None)
        if pending is None:
            return
        self._reply_fwd(
            pending["payload"],
            ok=False,
            value=None,
            error="remote_timeout",
            latency=self.network.now - pending["t0"],
        )

    def _reply_fwd(
        self,
        payload: Dict[str, Any],
        ok: bool,
        value: Any,
        error: Optional[str],
        latency: float,
        server: Optional[str] = None,
    ) -> None:
        self.network.unicast(
            self.host,
            payload["reply_to"],
            kind="fwd_resp",
            payload={
                "req_id": payload["req_id"],
                "ok": ok,
                "value": value,
                "error": error,
                "server": server,
            },
            size=512,
            port=payload["reply_port"],
        )


class _ForwardingClient:
    """Client-side glue wiring a consumer's unavailable path to the proxy."""

    PORT = "proxy-client"

    def __init__(self, consumer: ConsumerModule, proxy_addr: str, timeout: float) -> None:
        self.consumer = consumer
        self.network = consumer.network
        self.host = consumer.host
        self.proxy_addr = proxy_addr
        self.timeout = timeout
        self._pending: Dict[int, Dict[str, Any]] = {}
        self.network.bind(self.host, self.PORT, self._on_packet)
        consumer.unavailable_handler = self._forward

    def _forward(
        self, service: str, partition: Optional[int], data: Any, completion: Event
    ) -> bool:
        req_id = next(_fwd_ids)
        timer = self.network.sim.call_after(self.timeout, self._on_timeout, req_id)
        self._pending[req_id] = {
            "completion": completion,
            "timer": timer,
            "t0": self.network.now,
        }
        self.network.unicast(
            self.host,
            self.proxy_addr,
            kind="fwd_req",
            payload={
                "req_id": req_id,
                "service": service,
                "partition": partition,
                "data": data,
                "reply_to": self.host,
                "reply_port": self.PORT,
            },
            size=256,
            port=PROXY_PORT,
        )
        return True

    def _on_packet(self, packet: Packet) -> None:
        if packet.kind != "fwd_resp":
            return
        from repro.cluster.consumer import InvocationResult

        payload = packet.payload
        pending = self._pending.pop(payload["req_id"], None)
        if pending is None:
            return
        pending["timer"].cancel()
        pending["completion"].succeed(
            InvocationResult(
                ok=payload["ok"],
                value=payload["value"],
                error=payload["error"],
                latency=self.network.now - pending["t0"],
                server=payload["server"],
            )
        )

    def _on_timeout(self, req_id: int) -> None:
        from repro.cluster.consumer import InvocationResult

        pending = self._pending.pop(req_id, None)
        if pending is None:
            return
        pending["completion"].succeed(
            InvocationResult(
                ok=False,
                value=None,
                error="proxy_timeout",
                latency=self.network.now - pending["t0"],
                server=None,
            )
        )


def install_proxy_forwarding(
    consumer: ConsumerModule, proxy_addr: str, timeout: float = 2.0
) -> _ForwardingClient:
    """Route a consumer's locally-unavailable invocations through a proxy.

    This is paper Fig. 6 step 1: "a node cannot find a desired service in
    its local service cluster and forwards the request to one of the local
    proxies" — here always the proxy-group leader via the external address.
    """
    return _ForwardingClient(consumer, proxy_addr, timeout)
