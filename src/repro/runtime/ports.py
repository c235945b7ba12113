"""The transport-agnostic ports a membership daemon is written against.

:class:`NodeRuntime` is one node's execution environment.  It bundles

* a **clock** (:attr:`NodeRuntime.now`);
* **timers** — :meth:`NodeRuntime.call_once` one-shots that are
  registered, cancelled wholesale on :meth:`NodeRuntime.deactivate`, and
  guarded by the activation *epoch* so a timer scheduled in one life of
  the daemon can never fire into the next; and
  :meth:`NodeRuntime.call_every` recurring timers with the
  self-reschedule ordering contract of
  :class:`repro.sim.engine.RecurringTimer`;
* **multicast channels** — subscribe/unsubscribe/publish, scoped to this
  node's identity;
* **unicast datagrams** — per-port bind/unbind/send;
* **virtual addresses** — claim/release/owner of a shared address that
  moves between nodes (the proxy protocol's IP failover); only the
  simulator implements them, every other adapter refuses;
* **observability** — the shared instrument bundle (:attr:`obs`) and
  structured trace emission stamped with this node's id (:meth:`emit`);
* the **node-slot table** (:attr:`slot_table`) the directories of one
  runtime family share: every node of a simulated network, or one real
  daemon.

Epoch semantics: :meth:`activate` starts a new life (a daemon start) and
:meth:`bump_epoch` invalidates pending one-shots mid-life — protocol
code calls it when the node's incarnation moves without a restart (the
SWIM-style refutation of a false death rumor), because a one-shot
scheduled against the old incarnation must not act on the new one's
state.  Recurring timers are *not* epoch-guarded; they belong to the
life, not the incarnation, and die with :meth:`deactivate`.

:class:`Event` is the request/response completion handle built on the
one-shot port: its waiters resume through ``call_once(0.0, ...)``, so
they belong to the life of the runtime that owns the event.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional, Protocol

if TYPE_CHECKING:
    import random

    from repro.cluster.directory import SlotTable
    from repro.net.packet import Packet
    from repro.obs.wiring import Instruments

__all__ = ["HEADER_SIZE", "Event", "NodeRuntime", "PacketHandler", "TimerHandle"]

#: IP + UDP header bytes: the fixed part of every sized send's ``size``.
HEADER_SIZE = 28

#: A channel or port delivery callback.
PacketHandler = Callable[["Packet"], None]


class TimerHandle(Protocol):
    """Cancellable handle returned by the timer ports."""

    cancelled: bool

    def cancel(self) -> None:
        """Prevent (further) firings.  Idempotent."""


class NodeRuntime(ABC):
    """One node's execution environment (see module docstring)."""

    #: The identity every send/subscribe/emit is scoped to.
    node_id: str

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def now(self) -> float:
        """Current time in seconds."""

    # ------------------------------------------------------------------
    # Lifecycle / epochs
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def active(self) -> bool:
        """True between :meth:`activate` and :meth:`deactivate`."""

    @abstractmethod
    def activate(self) -> None:
        """Begin a new life: bump the epoch and accept timers."""

    @abstractmethod
    def deactivate(self) -> None:
        """End the current life and cancel every registered timer."""

    @abstractmethod
    def bump_epoch(self) -> None:
        """Invalidate pending one-shots without ending the life."""

    @property
    @abstractmethod
    def live_timers(self) -> int:
        """Registered, not-yet-cancelled timers (one-shot + recurring)."""

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    @abstractmethod
    def call_once(
        self, delay: float, fn: Callable[..., object], *args: object
    ) -> TimerHandle:
        """One-shot ``fn(*args)`` after ``delay``, bound to this life.

        The callback is dropped (not an error) when the runtime has been
        deactivated or the epoch has moved since scheduling.
        """

    @abstractmethod
    def call_every(
        self,
        period: float,
        fn: Callable[..., object],
        *args: object,
        first_delay: Optional[float] = None,
    ) -> TimerHandle:
        """Recurring ``fn(*args)`` every ``period``; cancelled on deactivate."""

    # ------------------------------------------------------------------
    # Multicast channels
    # ------------------------------------------------------------------
    @abstractmethod
    def subscribe(self, channel: str, handler: PacketHandler) -> None:
        """Join ``channel``; ``handler`` receives every delivery."""

    @abstractmethod
    def unsubscribe(self, channel: str) -> None:
        """Leave ``channel``."""

    @abstractmethod
    def publish(
        self, channel: str, ttl: int, kind: str, payload: object, size: int
    ) -> bool:
        """TTL-scoped multicast from this node.

        Returns True when the datagram was *accepted for send* — handed to
        the transport with a live local endpoint.  Nothing more: delivery
        counts, receiver liveness and loss are simulator-only knowledge a
        real transport cannot provide, so protocol code must never branch
        on how many peers (if any) a publish reached.  Reliability lives
        in the protocol itself (heartbeat repetition, piggyback recovery,
        sync polls), not in this return value.
        """

    # ------------------------------------------------------------------
    # Unicast datagrams
    # ------------------------------------------------------------------
    @abstractmethod
    def bind(self, port: str, handler: PacketHandler) -> None:
        """Receive unicast datagrams addressed to this node on ``port``."""

    @abstractmethod
    def unbind(self, port: str) -> None:
        """Stop receiving on ``port``."""

    @abstractmethod
    def send(
        self, dst: str, kind: str, payload: object, size: int, port: str = "membership"
    ) -> bool:
        """Unicast a datagram to a host or virtual address.

        Returns True when the datagram was *accepted for send* — the
        destination resolved to an address and the bytes were handed to
        the transport.  False means the send was refused locally (unknown
        destination, endpoint closed); True promises nothing about
        delivery, which only the simulator could ever know.  As with
        :meth:`publish`, protocol code must not treat the return value as
        a delivery report.
        """

    # ------------------------------------------------------------------
    # Virtual addresses
    # ------------------------------------------------------------------
    def claim_address(self, address: str) -> None:
        """Point virtual ``address`` at this node (first claim or takeover).

        A later :meth:`send` to ``address`` from any node reaches this
        one.  Adapters without an address table refuse.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no virtual addresses (IP takeover)"
        )

    def release_address(self, address: str) -> None:
        """Drop this node's claim on ``address``; no-op if another node holds it."""
        raise NotImplementedError(
            f"{type(self).__name__} has no virtual addresses (IP takeover)"
        )

    def address_owner(self, address: str) -> Optional[str]:
        """The node currently holding ``address``, or None."""
        raise NotImplementedError(
            f"{type(self).__name__} has no virtual addresses (IP takeover)"
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def obs(self) -> "Instruments":
        """The deployment's shared instrument bundle (no-op by default)."""

    @abstractmethod
    def emit(self, kind: str, **data: object) -> None:
        """Emit a structured trace event stamped ``(now, kind, node_id)``."""

    def emit_view_events(self, kind: str, targets: Iterable[str]) -> None:
        """Emit one ``target``-shaped view event per target, in order.

        Semantically ``emit(kind, target=t)`` for each ``t`` — a dedicated
        lane because formation emits one ``member_up`` per node *pair*
        (n² of them at 10k nodes), a run of them per update message, and
        adapters can override this to skip the loop when nothing is
        listening.
        """
        for target in targets:
            self.emit(kind, target=target)

    # ------------------------------------------------------------------
    # Directory storage
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def slot_table(self) -> "SlotTable":
        """The node-slot table shared by this runtime family's directories."""

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------
    @abstractmethod
    def rng_stream(self, name: str) -> "random.Random":
        """A named deterministic RNG stream from the deployment registry."""


class Event:
    """One-shot completion handle of the request/response code.

    Gateways, consumers, the proxy and the search app hand one to a
    requester: a callback registered while the event is pending runs once
    some other code calls :meth:`succeed`, with the value passed to it,
    through ``runtime.call_once(0.0, ...)`` — the timer queue at the
    current time, never re-entrantly.  Succeeding twice is an error;
    registering on an already-succeeded event resumes at once (again via
    the queue).  Waiters are one-shots of the owning runtime, so a stop
    of that runtime drops the ones not yet resumed.
    """

    __slots__ = ("runtime", "_value", "_done", "_waiters")

    def __init__(self, runtime: NodeRuntime) -> None:
        self.runtime = runtime
        self._value: Any = None
        self._done = False
        self._waiters: List[Callable[[Any], object]] = []

    @property
    def triggered(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise RuntimeError("event has not triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> None:
        """Trigger the event, resuming all waiters at the current time."""
        if self._done:
            raise RuntimeError("event already triggered")
        self._done = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for resume in waiters:
            self.runtime.call_once(0.0, resume, value)

    def _add_waiter(self, resume: Callable[[Any], object]) -> None:
        if self._done:
            self.runtime.call_once(0.0, resume, self._value)
        else:
            self._waiters.append(resume)
