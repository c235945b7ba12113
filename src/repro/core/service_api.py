"""The membership service library API (paper Section 5, Figs. 8 and 9).

``MService`` is the provider-side object: constructed from a configuration
file (Fig. 7 format), it runs the membership daemon, publishes services and
key-value pairs.  ``MClient`` is the consumer-side handle: it attaches to
the daemon's yellow page through the shared-memory key and answers
``lookup_service`` queries with regex service/partition matching.

The C++ API used a SysV shared-memory segment between the daemon process
and client processes on the same machine; the simulation equivalent is a
per-``(host, shm_key)`` registry on the :class:`~repro.net.network.Network`
that MClient reads directly — same-machine-only access is enforced just
like real shared memory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.directory import Directory
from repro.cluster.machine import MachineInfo
from repro.cluster.service import ServiceSpec
from repro.core.config import KNOBS, HierarchicalConfig, parse_config_text
from repro.core.node import HierarchicalNode
from repro.net.network import Network

__all__ = ["MService", "MClient", "Machine", "MachineList"]


@dataclass(frozen=True)
class Machine:
    """One entry of a lookup result: attribute/value pairs for a machine."""

    node_id: str
    attrs: Dict[str, str]
    partitions: Tuple[int, ...]

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        return self.attrs.get(key, default)


MachineList = List[Machine]

_CONTROL_KNOBS = {knob.attr: knob for knob in KNOBS if knob.control}


def _shm_registry(network: Network) -> Dict[Tuple[str, int], Directory]:
    registry = getattr(network, "_shm_registry", None)
    if registry is None:
        registry = {}
        network._shm_registry = registry
    return registry


class MService:
    """Provider-side membership service handle (paper Fig. 8).

    Parameters
    ----------
    network, host:
        Where the daemon runs.
    configuration:
        Configuration-file text in the Fig. 7 format; ``None`` uses
        defaults (which may later be changed through :meth:`control`).
    machine:
        Hardware description published in heartbeats.
    """

    #: commands accepted by :meth:`control` (the ``control`` rows of
    #: :data:`repro.core.config.KNOBS`)
    CONTROL_COMMANDS = tuple(_CONTROL_KNOBS)

    def __init__(
        self,
        network: Network,
        host: str,
        configuration: Optional[str] = None,
        machine: Optional[MachineInfo] = None,
    ) -> None:
        self.network = network
        self.host = host
        if configuration is not None:
            config, services = parse_config_text(configuration)
        else:
            config, services = HierarchicalConfig(), []
        self.node = HierarchicalNode(
            network, host, config=config, services=services, machine=machine
        )
        self._running = False

    # ------------------------------------------------------------------
    @property
    def config(self) -> HierarchicalConfig:
        return self.node.config

    def control(self, cmd: str, arg: Any) -> None:
        """Adjust a runtime parameter (the paper's ``control`` call).

        Config dataclasses are frozen, so the node adopts a replacement
        through ``apply_config`` — which also rebuilds the failure
        detector (switching strategies mid-run is supported) and keeps
        the role context's config reference in lockstep.
        """
        knob = _CONTROL_KNOBS.get(cmd)
        if knob is None:
            raise ValueError(f"unknown control command {cmd!r}")
        if isinstance(arg, str):
            arg = knob.parse(arg)
        self.node.apply_config(replace(self.node.config, **{cmd: arg}))

    def run(self) -> None:
        """Start the daemon threads (announcer/receiver/tracker/...)."""
        if self._running:
            return
        self.node.start()
        _shm_registry(self.network)[(self.host, self.config.shm_key)] = self.node.directory
        self._running = True

    def stop(self) -> None:
        if not self._running:
            return
        self.node.stop()
        _shm_registry(self.network).pop((self.host, self.config.shm_key), None)
        self._running = False

    def leave(self) -> None:
        """Graceful shutdown: announce departure, then stop the daemon."""
        if not self._running:
            return
        self.node.leave()
        _shm_registry(self.network).pop((self.host, self.config.shm_key), None)
        self._running = False

    # ------------------------------------------------------------------
    def register_service(self, name: str, partition: str) -> None:
        """Publish a service and its partition list, e.g. ``("Retriever", "1-3")``."""
        self.node.register_service(ServiceSpec.make(name, partition))

    def update_value(self, key: str, value: str) -> None:
        """Publish a key-value pair along with the membership information."""
        self.node.update_value(key, str(value))

    def delete_value(self, key: str) -> None:
        self.node.delete_value(key)


class MClient:
    """Consumer-side yellow-page handle (paper Fig. 9).

    Attaches to the directory of the daemon running on ``host`` through
    the shared-memory key.  Raises ``KeyError`` if no daemon on this host
    exposes that key — the same failure as a missing SysV segment.
    """

    def __init__(self, network: Network, host: str, shm_key: int) -> None:
        registry = _shm_registry(network)
        if (host, shm_key) not in registry:
            raise KeyError(f"no membership daemon with shm_key={shm_key} on {host}")
        self._directory = registry[(host, shm_key)]

    def lookup_service(
        self,
        service: str,
        partition: Optional[str] = None,
    ) -> MachineList:
        """Find machines providing ``service`` on ``partition``.

        Both arguments accept regular expressions (the partition also
        accepts ``"1-3,5"`` range syntax).  Returns the matched machines
        with their attribute lists, sorted by node id.
        """
        records = self._directory.lookup_service(service, partition)
        out: MachineList = []
        for rec in records:
            parts: set[int] = set()
            for name, p in rec.services.items():
                parts.update(p)
            out.append(
                Machine(node_id=rec.node_id, attrs=dict(rec.attrs), partitions=tuple(sorted(parts)))
            )
        return out

    def members(self) -> List[str]:
        """All currently-known nodes (convenience beyond the paper API)."""
        return list(self._directory.members())
