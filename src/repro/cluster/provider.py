"""The provider module: service request dispatch on one node.

Mirrors the Neptune provider module: requests arrive on the node's service
port, are handed to the service-specific handler, take a (simulated)
processing time, and the reply is sent back to the consumer.  The provider
also answers **load polls** — the paper's Announcer thread "answers the
polling requests from other nodes to facilitate the random polling load
balancing strategy".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.cluster.service import ServiceSpec
from repro.runtime import NodeRuntime

if TYPE_CHECKING:
    from repro.net.packet import Packet

__all__ = ["ProviderModule", "ServiceHandler"]

#: ``handler(partition, request_data) -> response_data``
ServiceHandler = Callable[[int, Any], Any]

SERVICE_PORT = "service"
REQUEST_SIZE = 256
REPLY_SIZE = 512
POLL_SIZE = 64


class ProviderModule:
    """Hosts service instances on one node and serves requests for them.

    ``runtime`` is the provider process's own; ``runtime.node_id`` is the
    host the service port lives on.
    """

    def __init__(self, runtime: NodeRuntime) -> None:
        self.runtime = runtime
        self.host = runtime.node_id
        self._services: Dict[str, ServiceSpec] = {}
        self._handlers: Dict[str, ServiceHandler] = {}
        self._active = 0  # in-flight requests == load metric for polling
        self._served = 0
        #: optional hook(consumer_host, service) invoked per request; used
        #: by the load-information protocol to learn who is "interested".
        self.request_observer: Optional[Callable[[str, str], None]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind the service port.  Idempotent."""
        if self.runtime.active:
            return
        self.runtime.activate()
        self.runtime.bind(SERVICE_PORT, self._on_packet)
        self._active = 0

    def stop(self) -> None:
        """Crash: unbind, and drop every request still being processed."""
        if not self.runtime.active:
            return
        self.runtime.deactivate()
        self.runtime.unbind(SERVICE_PORT)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, spec: ServiceSpec, handler: Optional[ServiceHandler] = None) -> None:
        """Export a service.  ``handler`` defaults to echoing the request."""
        self._services[spec.name] = spec
        self._handlers[spec.name] = handler if handler is not None else _echo_handler

    def services(self) -> Dict[str, ServiceSpec]:
        return dict(self._services)

    @property
    def load(self) -> int:
        """Current number of in-flight requests."""
        return self._active

    @property
    def served(self) -> int:
        """Total completed requests (metrics)."""
        return self._served

    # ------------------------------------------------------------------
    # Packet handling
    # ------------------------------------------------------------------
    def _on_packet(self, packet: "Packet") -> None:
        if packet.kind == "svc_request":
            self._on_request(packet)
        elif packet.kind == "load_poll":
            self._on_load_poll(packet)

    def _on_load_poll(self, packet: "Packet") -> None:
        self.runtime.send(
            packet.payload["reply_to"],
            kind="load_reply",
            payload={"poll_id": packet.payload["poll_id"], "load": self._active, "host": self.host},
            size=POLL_SIZE,
            port=packet.payload.get("reply_port", SERVICE_PORT),
        )

    def _on_request(self, packet: "Packet") -> None:
        payload = packet.payload
        service = payload["service"]
        if self.request_observer is not None:
            self.request_observer(payload["reply_to"], service)
        spec = self._services.get(service)
        partition = payload["partition"]
        if spec is None or (partition is not None and partition not in spec.partitions):
            self._reply(payload, ok=False, value=None, error="no_such_service")
            return
        handler = self._handlers[service]
        self._active += 1
        self.runtime.call_once(
            spec.service_time, self._complete, payload, handler, partition
        )

    def _complete(self, payload: Dict[str, Any], handler: ServiceHandler, partition: int) -> None:
        self._active -= 1
        try:
            value = handler(partition, payload.get("data"))
        except Exception as exc:  # noqa: BLE001 - app handler errors become failures
            self._reply(payload, ok=False, value=None, error=f"handler_error:{exc}")
            return
        self._served += 1
        self._reply(payload, ok=True, value=value, error=None)

    def _reply(self, payload: Dict[str, Any], ok: bool, value: Any, error: Optional[str]) -> None:
        self.runtime.send(
            payload["reply_to"],
            kind="svc_reply",
            payload={
                "req_id": payload["req_id"],
                "ok": ok,
                "value": value,
                "error": error,
                "server": self.host,
            },
            size=REPLY_SIZE,
            port=payload.get("reply_port", SERVICE_PORT),
        )


def _echo_handler(partition: int, data: Any) -> Any:
    return {"partition": partition, "echo": data}
