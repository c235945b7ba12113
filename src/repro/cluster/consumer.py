"""The consumer module: location-transparent service invocation.

The Neptune consumer module "automatically routes each request to an
appropriate node based on the service availability and runtime workload".
Here that means: look the service up in the node-local yellow-page
directory, optionally run a random-polling round, dispatch, and wait for
the reply under a timeout.

When the directory has **no** live provider, the consumer consults its
``unavailable_handler`` — the hook the membership proxy protocol plugs into
to forward the request to another data center (paper Fig. 6, step 1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.cluster.directory import Directory
from repro.cluster.loadbalance import LoadBalancer, RandomChoice
from repro.cluster.provider import POLL_SIZE, REQUEST_SIZE, SERVICE_PORT
from repro.net.network import Network
from repro.net.packet import Packet
from repro.sim import Event

__all__ = ["ConsumerModule", "InvocationResult"]

_req_ids = itertools.count()

CONSUMER_PORT = "consumer"


@dataclass(frozen=True)
class InvocationResult:
    """Outcome of one service invocation.

    ``ok`` is False on timeout, unavailability, or a provider-side error;
    ``error`` then holds a short reason code.  ``latency`` is the wall time
    between ``invoke`` and completion, including any polling round.
    """

    ok: bool
    value: Any
    error: Optional[str]
    latency: float
    server: Optional[str]


@dataclass
class _Pending:
    completion: Event
    started: float
    timer: Any
    server: Optional[str] = None
    service: str = ""
    partition: Optional[int] = None
    data: Any = None
    retries_left: int = 0


class ConsumerModule:
    """Issues service requests from one node.

    Parameters
    ----------
    network, host:
        Transport endpoint.
    directory:
        The node-local yellow pages maintained by a membership protocol.
    balancer:
        Replica-selection policy (default uniform random).
    request_timeout:
        Seconds before an in-flight request is declared failed.
    poll_timeout:
        How long a random-polling round waits for load replies (the round
        finishes early once every polled replica has answered).
    retries:
        Failure shielding: on timeout the failed server is blacklisted for
        ``blacklist_ttl`` seconds and the request is re-dispatched to
        another replica, up to this many times.
    """

    def __init__(
        self,
        network: Network,
        host: str,
        directory: Directory,
        balancer: Optional[LoadBalancer] = None,
        request_timeout: float = 1.0,
        poll_timeout: float = 0.05,
        retries: int = 0,
        blacklist_ttl: float = 10.0,
    ) -> None:
        self.network = network
        self.host = host
        self.directory = directory
        self.balancer = balancer if balancer is not None else RandomChoice()
        self.request_timeout = request_timeout
        self.poll_timeout = poll_timeout
        self.retries = retries
        self.blacklist_ttl = blacklist_ttl
        self.rng = network.rng.stream(f"consumer.{host}")
        self._pending: Dict[int, _Pending] = {}
        self._polls: Dict[int, Dict[str, Any]] = {}
        self._blacklist: Dict[str, float] = {}
        #: hook(service, partition, data, completion_event) -> bool handled
        self.unavailable_handler: Optional[
            Callable[[str, Optional[int], Any, Event], bool]
        ] = None
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.network.bind(self.host, CONSUMER_PORT, self._on_packet)
        self._running = True

    def stop(self) -> None:
        self.network.transport.unbind(self.host, CONSUMER_PORT)
        for pending in self._pending.values():
            pending.timer.cancel()
        for poll in self._polls.values():
            poll["timer"].cancel()
        self._pending.clear()
        self._polls.clear()
        self._blacklist.clear()
        self._running = False

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------
    def invoke(
        self,
        service: str,
        partition: Optional[int] = None,
        data: Any = None,
    ) -> Event:
        """Invoke ``(service, partition)``; returns an Event.

        The event succeeds with an :class:`InvocationResult` — including on
        failure, so callers always get exactly one completion.
        """
        completion = Event(self.network.sim)
        self._attempt(service, partition, data, completion, self.network.now, self.retries)
        return completion

    def _candidates(self, service: str, partition: Optional[int]) -> list[str]:
        part_spec = None if partition is None else str(partition)
        now = self.network.now
        out = []
        for rec in self.directory.lookup_service(service, part_spec):
            until = self._blacklist.get(rec.node_id)
            if until is not None:
                if until > now:
                    continue
                del self._blacklist[rec.node_id]
            out.append(rec.node_id)
        return out

    def _attempt(
        self,
        service: str,
        partition: Optional[int],
        data: Any,
        completion: Event,
        started: float,
        retries_left: int,
    ) -> None:
        candidates = self._candidates(service, partition)
        if not candidates:
            if self.unavailable_handler is not None and self.unavailable_handler(
                service, partition, data, completion
            ):
                return
            completion.succeed(
                InvocationResult(
                    False, None, "unavailable", self.network.now - started, None
                )
            )
            return
        if self.balancer.polls and len(candidates) > 1:
            self._start_poll_round(
                service, partition, data, candidates, completion, started, retries_left
            )
        else:
            target = self.balancer.choose(candidates, self.rng)
            self._dispatch(
                target, service, partition, data, completion, started, retries_left
            )

    # ------------------------------------------------------------------
    # Random polling round
    # ------------------------------------------------------------------
    def _start_poll_round(
        self,
        service: str,
        partition: Optional[int],
        data: Any,
        candidates: list[str],
        completion: Event,
        started: float,
        retries_left: int,
    ) -> None:
        poll_id = next(_req_ids)
        targets = self.balancer.poll_targets(candidates, self.rng)
        timer = self.network.sim.call_after(
            self.poll_timeout, self._finish_poll_round, poll_id
        )
        self._polls[poll_id] = {
            "loads": {},
            "expected": len(targets),
            "timer": timer,
            "args": (service, partition, data, candidates, completion, started, retries_left),
        }
        for target in targets:
            self.network.unicast(
                self.host,
                target,
                kind="load_poll",
                payload={"poll_id": poll_id, "reply_to": self.host, "reply_port": CONSUMER_PORT},
                size=POLL_SIZE,
                port=SERVICE_PORT,
            )

    def _finish_poll_round(self, poll_id: int) -> None:
        poll = self._polls.pop(poll_id, None)
        if poll is None:
            return
        poll["timer"].cancel()
        service, partition, data, candidates, completion, started, retries_left = poll["args"]
        target = self.balancer.pick_from_loads(poll["loads"], candidates, self.rng)
        self._dispatch(
            target, service, partition, data, completion, started, retries_left
        )

    # ------------------------------------------------------------------
    # Dispatch and replies
    # ------------------------------------------------------------------
    def _dispatch(
        self,
        target: str,
        service: str,
        partition: Optional[int],
        data: Any,
        completion: Event,
        started: float,
        retries_left: int,
    ) -> None:
        req_id = next(_req_ids)
        timer = self.network.sim.call_after(self.request_timeout, self._on_timeout, req_id)
        self._pending[req_id] = _Pending(
            completion, started, timer, target, service, partition, data, retries_left
        )
        self.network.unicast(
            self.host,
            target,
            kind="svc_request",
            payload={
                "req_id": req_id,
                "service": service,
                "partition": partition,
                "data": data,
                "reply_to": self.host,
                "reply_port": CONSUMER_PORT,
            },
            size=REQUEST_SIZE,
            port=SERVICE_PORT,
        )

    def _on_packet(self, packet: Packet) -> None:
        if packet.kind == "svc_reply":
            self._on_reply(packet)
        elif packet.kind == "load_reply":
            poll_id = packet.payload["poll_id"]
            poll = self._polls.get(poll_id)
            if poll is not None:
                poll["loads"][packet.payload["host"]] = packet.payload["load"]
                if len(poll["loads"]) >= poll["expected"]:
                    # All replies in: don't sit out the rest of the window.
                    self._finish_poll_round(poll_id)

    def _on_reply(self, packet: Packet) -> None:
        payload = packet.payload
        pending = self._pending.pop(payload["req_id"], None)
        if pending is None:
            return  # reply raced with timeout; already resolved
        pending.timer.cancel()
        pending.completion.succeed(
            InvocationResult(
                ok=payload["ok"],
                value=payload["value"],
                error=payload["error"],
                latency=self.network.now - pending.started,
                server=payload["server"],
            )
        )

    def _on_timeout(self, req_id: int) -> None:
        pending = self._pending.pop(req_id, None)
        if pending is None:
            return
        if pending.server is not None and self.retries > 0:
            # Failure shielding: remember the silent server regardless of
            # whether this particular request can still retry.
            self._blacklist[pending.server] = self.network.now + self.blacklist_ttl
        if pending.retries_left > 0 and pending.server is not None:
            self._attempt(
                pending.service,
                pending.partition,
                pending.data,
                pending.completion,
                pending.started,
                pending.retries_left - 1,
            )
            return
        pending.completion.succeed(
            InvocationResult(
                ok=False,
                value=None,
                error="timeout",
                latency=self.network.now - pending.started,
                server=pending.server,
            )
        )
