"""The :class:`Network` facade protocol nodes program against.

Bundles one simulator, one topology, a multicast fabric, a unicast
transport, a bandwidth meter, a trace, and seeded RNG streams.  Protocol
code never touches the fabric/transport directly through separate objects;
everything flows through this facade so experiments can swap loss rates,
topologies and metering without touching protocol code.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.net.bandwidth import BandwidthMeter
from repro.net.faults import FaultPlan
from repro.net.multicast import MulticastFabric
from repro.net.packet import Packet
from repro.net.topology import Topology
from repro.net.transport import UnicastTransport
from repro.obs.wiring import NOOP, Instruments
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Trace

__all__ = ["Network"]

Handler = Callable[[Packet], None]


class Network:
    """One simulated deployment: clock + devices + fabrics + metering.

    Parameters
    ----------
    topo:
        The device graph.
    seed:
        Root seed for all stochastic behaviour (loss, protocol jitter, ...).
    loss_rate:
        Independent per-delivery drop probability applied to both multicast
        and unicast (0 disables the loss process entirely).
    proc_delay:
        Fixed per-packet processing delay at the receiver.
    keep_bandwidth_series:
        Keep the full per-packet time series (needed for bucketed bandwidth
        plots; off by default to keep big sweeps lean).
    fault_plan:
        Optional chaos :class:`~repro.net.faults.FaultPlan` to install at
        construction (see :meth:`set_fault_plan`).
    sim:
        The kernel to run on; a fresh :class:`Simulator` by default.  The
        sharded kernel hands in its own (``repro.shard.netshard``), as it
        does ``trace`` — nothing here branches on either.
    """

    def __init__(
        self,
        topo: Topology,
        seed: int = 0,
        loss_rate: float = 0.0,
        proc_delay: float = 0.0,
        keep_bandwidth_series: bool = False,
        trace: Optional[Trace] = None,
        fault_plan: Optional[FaultPlan] = None,
        sim: Optional[Simulator] = None,
    ) -> None:
        self.sim = sim if sim is not None else Simulator()
        self.topo = topo
        self.rng = RngRegistry(seed)
        self.meter = BandwidthMeter(keep_series=keep_bandwidth_series)
        self.trace = trace if trace is not None else Trace()
        loss_rng = self.rng.stream("net.loss") if loss_rate > 0 else None
        self.multicast_fabric, self.transport = self._make_fabrics(
            self.sim, topo, self.meter, loss_rate, loss_rng, proc_delay
        )
        self.fault_plan: Optional[FaultPlan] = None
        if fault_plan is not None:
            self.set_fault_plan(fault_plan)
        # Shared instrument bundle; the no-op singleton until
        # repro.obs.enable_observability swaps in real instruments.
        self.obs: Instruments = NOOP

    def _make_fabrics(self, *args: object) -> Tuple[MulticastFabric, UnicastTransport]:
        """Build both fabrics from their shared constructor arguments."""
        return MulticastFabric(*args), UnicastTransport(*args)

    # ------------------------------------------------------------------
    # Convenience pass-throughs used by protocol code
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def subscribe(self, channel: str, host: str, handler: Handler) -> None:
        self.multicast_fabric.subscribe(channel, host, handler)

    def unsubscribe(self, channel: str, host: str) -> None:
        self.multicast_fabric.unsubscribe(channel, host)

    def multicast(
        self,
        src: str,
        channel: str,
        ttl: int,
        kind: str,
        payload: object,
        size: int,
    ) -> int:
        """Send a TTL-scoped multicast; returns deliveries scheduled."""
        return self.multicast_fabric.send(
            Packet(src=src, channel=channel, ttl=ttl, kind=kind, payload=payload, size=size)
        )

    def bind(self, host: str, port: str, handler: Handler) -> None:
        self.transport.bind(host, port, handler)

    def unicast(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: object,
        size: int,
        port: str = "membership",
    ) -> bool:
        """Send a unicast datagram to a host or virtual address."""
        return self.transport.send(
            Packet(src=src, dst=dst, kind=kind, payload=payload, size=size), port=port
        )

    # ------------------------------------------------------------------
    # Chaos fault injection
    # ------------------------------------------------------------------
    def set_fault_plan(self, plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
        """Install ``plan`` on both fabrics (``None`` removes chaos).

        A plan without an RNG gets the dedicated seeded ``net.chaos``
        stream, keeping chaos draws off the base loss stream so enabling
        faults never perturbs the ``net.loss`` sequence of an existing
        seeded experiment.
        """
        if plan is not None and plan.rng is None:
            plan.rng = self.rng.stream("net.chaos")
        self.fault_plan = plan
        self.multicast_fabric.fault_plan = plan
        self.transport.fault_plan = plan
        return plan

    def ensure_fault_plan(self) -> FaultPlan:
        """The installed fault plan, creating (and installing) one if absent."""
        if self.fault_plan is None:
            self.set_fault_plan(FaultPlan())
        return self.fault_plan

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def crash_host(self, host: str) -> None:
        """Hard-kill a host: stops sending, receiving, and all bindings.

        Subscriptions and port bindings are dropped, matching a killed
        daemon process (the paper's Section 6.4 failure injection).
        """
        self.topo.set_up(host, False)
        self.multicast_fabric.unsubscribe_all(host)
        self.transport.unbind_all(host)
        self.trace.emit(self.sim.now, "host_crashed", node=host)

    def recover_host(self, host: str) -> None:
        """Bring the device back up; protocol stacks must re-join themselves."""
        self.topo.set_up(host, True)
        self.trace.emit(self.sim.now, "host_recovered", node=host)

    def fail_device(self, device: str) -> None:
        """Down a switch/router, partitioning everything behind it."""
        self.topo.set_up(device, False)
        self.trace.emit(self.sim.now, "device_failed", node=device)

    def recover_device(self, device: str) -> None:
        self.topo.set_up(device, True)
        self.trace.emit(self.sim.now, "device_recovered", node=device)

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)
