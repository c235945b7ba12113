"""The node runtime layer: ports protocol code programs against.

The paper's daemon runs on a real operating system — threads, UDP
sockets, multicast group membership, wall-clock timers.  This
reproduction runs the same protocol logic over **either** a
discrete-event simulator or a real asyncio event loop.  ``repro.runtime``
is the seam between the worlds: protocol code (``repro.core.roles``,
``repro.protocols``, the membership proxy and the Neptune modules of
``repro.cluster``) talks exclusively to the :class:`NodeRuntime`
ports — clock, one-shot and recurring timers, multicast channel
subscribe/publish, unicast bind/send, virtual addresses, trace and
instrument emission — and the adapters implement those ports:

* :class:`SimRuntime` over ``repro.sim`` / ``repro.net`` — the default,
  fully deterministic;
* :class:`~repro.runtime.anet.AsyncRuntime` over asyncio/UDP with
  datagrams framed by :mod:`repro.runtime.wire` and TTL-scoped
  multicast via the channel relay (:mod:`repro.runtime.relay`) — real
  daemon processes on a real network (``repro.cli daemon``).

Both adapters honor one behavioural contract, pinned by the shared
conformance suite in ``tests/runtime/test_port_contract.py``; protocol
changes never reach into fabric, kernel or socket internals.

Determinism contract: :class:`SimRuntime` schedules exactly one kernel
event per one-shot and one recurring-timer registration per series, in
the order the ports are called, so a protocol stack moved onto the
runtime produces byte-identical seeded traces (guarded by the golden
hashes in ``tests/integration/test_determinism_guard.py``).

:class:`AsyncRuntime` is intentionally not imported here: importing the
package must not drag in asyncio machinery for simulator-only users.
"""

from repro.runtime.ports import HEADER_SIZE, Event, NodeRuntime, PacketHandler, TimerHandle
from repro.runtime.sim import SimRuntime

__all__ = ["HEADER_SIZE", "Event", "NodeRuntime", "PacketHandler", "TimerHandle", "SimRuntime"]
