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

The daemon speaks only its :class:`~repro.runtime.ports.NodeRuntime`:
the heartbeat is a ``call_once`` chain, the external address moves with
the address port, and ``stop()`` ends the runtime's life, so no timer of
a stopped proxy fires.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.cluster.consumer import ConsumerModule, InvocationResult
from repro.cluster.directory import Directory
from repro.core.election import Decision, decide
from repro.core.groups import GroupState
from repro.core.heartbeat import Heartbeat
from repro.core.node import HierarchicalNode
from repro.runtime import HEADER_SIZE, Event, NodeRuntime

if TYPE_CHECKING:
    from repro.net.packet import Packet

__all__ = ["ServiceSummary", "MembershipProxy", "install_proxy_forwarding"]

PROXY_PORT = "proxy"
#: The proxy group's channel is ``proxy:<dc>``.
CHANNEL_PREFIX = "proxy"
#: "If the size of the membership summary is too big, the summary is
#: broken into multiple heartbeat packets."
MAX_ENTRIES_PER_PACKET = 64
ENTRY_SIZE = 48  # service name + partition bitmap, bytes
#: Seconds a leader waits for the remote data center to answer a forward.
FORWARD_TIMEOUT = 1.0
#: Seconds a consumer waits for the proxy to answer a forwarded request.
CLIENT_TIMEOUT = 2.0
_fwd_ids = itertools.count()


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
    runtime:
        The proxy daemon's own runtime.  Its host (``runtime.node_id``)
        must also run ``member_node`` (the local cluster membership
        stack) — a proxy is a cluster node with extra duties, exactly as
        in the paper's deployment.
    consumer_runtime:
        Runtime of the proxy's consumer module, a second process on the
        same host that serves forwarded invocations from the local
        cluster (Fig. 6 steps 3-4).
    dc:
        The data center this proxy serves.
    external_addr:
        The data center's shared external address (virtual IP).
    remote_addrs:
        ``dc name -> external address`` of every other data center.
    member_node:
        The co-located hierarchical membership node: source of the local
        yellow pages, and of the proxy group's heartbeat period, failure
        timeout and election delay (its ``config``).
    """

    def __init__(
        self,
        runtime: NodeRuntime,
        consumer_runtime: NodeRuntime,
        dc: str,
        external_addr: str,
        remote_addrs: Dict[str, str],
        member_node: HierarchicalNode,
    ) -> None:
        self.runtime = runtime
        self.host = runtime.node_id
        self.dc = dc
        self.channel = f"{CHANNEL_PREFIX}:{dc}"
        self.external_addr = external_addr
        self.remote_addrs = {d: a for d, a in remote_addrs.items() if d != dc}
        self.member_node = member_node
        self.rng = runtime.rng_stream(f"proxy.{self.host}")
        self.group = GroupState(level=0)
        self.remote: Dict[str, _RemoteDc] = {}
        self._summary_epoch = 0
        self._last_summary: Optional[ServiceSummary] = None
        # forwarded invocations awaiting a remote answer: id -> request
        self._pending_out: Dict[int, Dict[str, Any]] = {}
        self._consumer = ConsumerModule(
            consumer_runtime, member_node.directory, request_timeout=FORWARD_TIMEOUT
        )

    # ------------------------------------------------------------------
    @property
    def is_leader(self) -> bool:
        return self.group.i_am_leader

    def known_remote_dcs(self) -> List[str]:
        """Remote data centers with a live (unexpired) summary."""
        now = self.runtime.now
        return sorted(
            d
            for d, r in self.remote.items()
            if now - r.last_heard <= self.member_node.config.fail_timeout
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.runtime.active:
            return
        self.runtime.activate()
        self.group = GroupState(level=0)
        self.remote.clear()
        self._last_summary = None
        self.runtime.subscribe(self.channel, self._on_channel)
        self.runtime.bind(PROXY_PORT, self._on_unicast)
        self._consumer.start()
        phase = self.rng.uniform(0, self.member_node.config.heartbeat_period)
        self.runtime.call_once(phase, self._tick)

    def stop(self) -> None:
        if not self.runtime.active:
            return
        self.runtime.deactivate()
        self.group.i_am_leader = False
        self.group.my_backup = None
        self.runtime.unsubscribe(self.channel)
        self.runtime.unbind(PROXY_PORT)
        self._consumer.stop()
        self.runtime.release_address(self.external_addr)
        self._pending_out.clear()

    # ------------------------------------------------------------------
    # Proxy-group membership and election
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now = self.runtime.now
        # Heartbeat on the proxy channel.
        self.runtime.publish(
            self.channel,
            64,  # the proxy channel is scoped by subscription, DC-wide
            "proxy_hb",
            Heartbeat(
                record=self.member_node.self_record(),
                level=0,
                is_leader=self.group.i_am_leader,
                suppressed=self.group.suppressed,
                backup=self.group.my_backup if self.group.i_am_leader else None,
            ),
            HEADER_SIZE + 64,
        )
        # Failure detection within the proxy group.
        for peer in self.group.purge_silent(now, self.member_node.config.fail_timeout):
            if peer.is_leader and peer.backup == self.host and not self.group.i_am_leader:
                self._become_leader()
        self._evaluate_election()
        if self.group.i_am_leader:
            self._leader_duties()
        self.runtime.call_once(self.member_node.config.heartbeat_period, self._tick)

    def _evaluate_election(self) -> None:
        delay = self.member_node.config.election_delay
        decision = decide(self.group, self.host, self.runtime.now, delay)
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
        self.runtime.claim_address(self.external_addr)
        self.runtime.emit("proxy_leader", dc=self.dc)

    def _step_down(self) -> None:
        self.group.i_am_leader = False
        self.group.my_backup = None
        self.group.suppressed = True
        self.runtime.release_address(self.external_addr)

    def _on_channel(self, packet: "Packet") -> None:
        if packet.kind == "proxy_hb":
            hb: Heartbeat = packet.payload
            self.group.note_heartbeat(hb, self.runtime.now)
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
        chunks = summary.chunks(MAX_ENTRIES_PER_PACKET)
        for idx, chunk in enumerate(chunks):
            payload = {
                "dc": self.dc,
                "epoch": self._summary_epoch,
                "entries": chunk.services,
                "final": idx == len(chunks) - 1,
            }
            size = HEADER_SIZE + ENTRY_SIZE * max(1, len(chunk))
            # "Each proxy leader sends these heartbeat packets sequentially
            # to the other leaders using well-known IP addresses."
            for dc, addr in sorted(self.remote_addrs.items()):
                self.runtime.send(addr, kind, payload, size, port=PROXY_PORT)

    # ------------------------------------------------------------------
    # Unicast: summaries in, forwarding
    # ------------------------------------------------------------------
    def _on_unicast(self, packet: "Packet") -> None:
        if packet.kind in ("proxy_summary", "proxy_update"):
            payload = packet.payload
            self._merge_remote_summary(
                payload["dc"], payload["epoch"], payload["entries"], payload["final"]
            )
            # Relay to the local proxy group.
            self.runtime.publish(self.channel, 64, "proxy_relay", payload, packet.size)
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
            state.last_heard = self.runtime.now

    # ------------------------------------------------------------------
    # Service invocation forwarding (paper Fig. 6)
    # ------------------------------------------------------------------
    def _candidate_dcs(self, service: str, partition: Optional[int]) -> List[str]:
        now = self.runtime.now
        out = []
        for dc in sorted(self.remote):
            state = self.remote[dc]
            if now - state.last_heard > self.member_node.config.fail_timeout:
                continue
            parts = state.summary.get(service)
            if parts is None:
                continue
            if partition is None or partition in parts:
                out.append(dc)
        return out

    def _on_fwd_req(self, packet: "Packet") -> None:
        """Step 2: pick a remote data center and forward, or reject."""
        payload = packet.payload
        dcs = self._candidate_dcs(payload["service"], payload["partition"])
        if not dcs:
            self._reply_fwd(payload, ok=False, value=None, error="no_remote_dc")
            return
        dc = dcs[self.rng.randrange(len(dcs))]
        fwd_id = next(_fwd_ids)
        # Never cancelled: a timeout after the answer finds its entry gone.
        self.runtime.call_once(FORWARD_TIMEOUT, self._on_fwd_timeout, fwd_id)
        self._pending_out[fwd_id] = payload
        self.runtime.send(
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

    def _on_fwd_remote(self, packet: "Packet") -> None:
        """Steps 3-4: serve the request from the local cluster."""
        payload = packet.payload
        completion = self._consumer.invoke(
            payload["service"], payload["partition"], payload["data"]
        )

        def respond(result: InvocationResult) -> None:
            self.runtime.send(
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

    def _on_fwd_remote_resp(self, packet: "Packet") -> None:
        """Steps 5-6: relay the result back to the original requester."""
        payload = packet.payload
        request = self._pending_out.pop(payload["fwd_id"], None)
        if request is None:
            return
        self._reply_fwd(
            request,
            ok=payload["ok"],
            value=payload["value"],
            error=payload["error"],
            server=payload.get("server"),
        )

    def _on_fwd_timeout(self, fwd_id: int) -> None:
        request = self._pending_out.pop(fwd_id, None)
        if request is None:
            return
        self._reply_fwd(request, ok=False, value=None, error="remote_timeout")

    def _reply_fwd(
        self,
        payload: Dict[str, Any],
        ok: bool,
        value: Any,
        error: Optional[str],
        server: Optional[str] = None,
    ) -> None:
        self.runtime.send(
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
    """Client-side glue wiring a consumer's unavailable path to the proxy.

    It lives in the consumer's process, so it shares the consumer's runtime.
    """

    PORT = "proxy-client"

    def __init__(self, consumer: ConsumerModule, proxy_addr: str) -> None:
        self.runtime = consumer.runtime
        self.proxy_addr = proxy_addr
        # request id -> (completion, t0)
        self._pending: Dict[int, Tuple[Event, float]] = {}
        self.runtime.bind(self.PORT, self._on_packet)
        consumer.unavailable_handler = self._forward

    def _forward(
        self, service: str, partition: Optional[int], data: Any, completion: Event
    ) -> bool:
        req_id = next(_fwd_ids)
        # Never cancelled: a timeout after the answer finds its entry gone.
        self.runtime.call_once(CLIENT_TIMEOUT, self._on_timeout, req_id)
        self._pending[req_id] = (completion, self.runtime.now)
        self.runtime.send(
            self.proxy_addr,
            kind="fwd_req",
            payload={
                "req_id": req_id,
                "service": service,
                "partition": partition,
                "data": data,
                "reply_to": self.runtime.node_id,
                "reply_port": self.PORT,
            },
            size=256,
            port=PROXY_PORT,
        )
        return True

    def _on_packet(self, packet: "Packet") -> None:
        if packet.kind != "fwd_resp":
            return
        payload = packet.payload
        pending = self._pending.pop(payload["req_id"], None)
        if pending is None:
            return
        completion, t0 = pending
        completion.succeed(
            InvocationResult(
                ok=payload["ok"],
                value=payload["value"],
                error=payload["error"],
                latency=self.runtime.now - t0,
                server=payload["server"],
            )
        )

    def _on_timeout(self, req_id: int) -> None:
        pending = self._pending.pop(req_id, None)
        if pending is None:
            return
        completion, t0 = pending
        completion.succeed(
            InvocationResult(False, None, "proxy_timeout", self.runtime.now - t0, None)
        )


def install_proxy_forwarding(consumer: ConsumerModule, proxy_addr: str) -> _ForwardingClient:
    """Route a consumer's locally-unavailable invocations through a proxy.

    This is paper Fig. 6 step 1: "a node cannot find a desired service in
    its local service cluster and forwards the request to one of the local
    proxies" — here always the proxy-group leader via the external address.
    """
    return _ForwardingClient(consumer, proxy_addr)
