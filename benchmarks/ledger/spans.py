"""In-memory span tracer, installed from the benchmark's own files.

The traced run wraps the public entry points of each layer (the span
table below) with a timing wrapper that appends one span
``(name, start, end, parent)`` to four flat arrays and does nothing
else; aggregation happens once, after the workload has ended.  Targets
are resolved by dotted name at run time: a name that no longer resolves
is listed in :attr:`Tracer.missing` and skipped, never a crash — later
changes cannot edit this directory, so a rename in ``repro`` must not
break the end-to-end run.

Self time of a layer is the summed duration of its spans minus the
summed duration of the spans they directly caused (their children),
so nested layers never count the same microsecond twice and the self
times of all layers add up to the time covered by root spans.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["LAYERS", "SPAN_TABLE", "Tracer"]

#: Layer names are the repo's module names (plus ``os.udp`` and ``gc``).
LAYERS = (
    "sim.engine",
    "net.multicast",
    "net.transport",
    "net.topology",
    "net.bandwidth",
    "runtime.sim",
    "runtime.anet",
    "runtime.wire",
    "runtime.relay",
    "os.udp",
    "roles.receiver",
    "roles.announcer",
    "roles.tracker",
    "roles.informer",
    "roles.contender",
    "core.updates",
    "cluster.directory",
    "detect",
    "gc",
)

#: layer -> dotted targets (public names only).  A trailing ``()`` marks a
#: factory: the callable it *returns* is wrapped, not the factory itself.
SPAN_TABLE: Dict[str, Tuple[str, ...]] = {
    "sim.engine": ("repro.sim.engine.Simulator.run",),
    "net.multicast": ("repro.net.multicast.MulticastFabric.send",),
    "net.transport": ("repro.net.transport.UnicastTransport.send",),
    "net.topology": (
        "repro.net.topology.Topology.mc_route",
        "repro.net.topology.Topology.hosts_within",
    ),
    "net.bandwidth": (
        "repro.net.bandwidth.BandwidthMeter.record",
        "repro.net.bandwidth.BandwidthMeter.record_many",
        "repro.net.bandwidth.BandwidthMeter.record_pending",
    ),
    "runtime.sim": (
        "repro.runtime.sim.SimRuntime.publish",
        "repro.runtime.sim.SimRuntime.send",
        "repro.runtime.sim.SimRuntime.call_once",
        "repro.runtime.sim.SimRuntime.call_every",
    ),
    "runtime.anet": (
        "repro.runtime.anet.AsyncRuntime.publish",
        "repro.runtime.anet.AsyncRuntime.send",
    ),
    "runtime.wire": (
        "repro.runtime.wire.encode_packet",
        "repro.runtime.wire.decode_packet",
        "repro.runtime.wire.fragment_frame",
        "repro.runtime.wire.Reassembler.add",
    ),
    "runtime.relay": ("repro.runtime.relay.ChannelRelay.datagram_received",),
    "roles.receiver": (
        "repro.core.roles.receiver.Receiver.channel_handler()",
        "repro.core.roles.receiver.Receiver.on_heartbeat",
        "repro.core.roles.receiver.Receiver.on_unicast",
    ),
    "roles.announcer": ("repro.core.roles.announcer.Announcer.heartbeat_tick",),
    "roles.tracker": ("repro.core.roles.tracker.Tracker.check_tick",),
    "roles.informer": (
        "repro.core.roles.informer.Informer.on_update",
        "repro.core.roles.informer.Informer.apply_ops",
        "repro.core.roles.informer.Informer.relay_ops",
        "repro.core.roles.informer.Informer.originate",
        "repro.core.roles.informer.Informer.merge_snapshot",
    ),
    "roles.contender": (
        "repro.core.roles.contender.Contender.evaluate",
        "repro.core.roles.contender.Contender.become_leader",
        "repro.core.roles.contender.Contender.step_down",
    ),
    "core.updates": (
        "repro.core.updates.UpdateManager.receive",
        "repro.core.updates.UpdateManager.build",
        "repro.core.updates.UpdateManager.mark_seen",
    ),
    "cluster.directory": (
        "repro.cluster.directory.Directory.upsert",
        "repro.cluster.directory.Directory.insert_new",
        "repro.cluster.directory.Directory.refresh",
        "repro.cluster.directory.Directory.remove",
        "repro.cluster.directory.Directory.purge_stale",
        "repro.cluster.directory.Directory.purge_relayed_by",
        "repro.cluster.directory.Directory.purge_stale_relayed",
        "repro.cluster.directory.Directory.snapshot",
    ),
    # The active detector: every workload runs the default counter strategy.
    "detect": (
        "repro.detect.counter.CounterDetector.observe_heartbeat",
        "repro.detect.counter.CounterDetector.silent_peers",
        "repro.detect.counter.CounterDetector.silent_ids",
        "repro.detect.counter.CounterDetector.purge_directory",
    ),
}


def _resolve(dotted: str) -> Tuple[Any, str]:
    """``(owner, attribute)`` for a dotted name, importing the longest module prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        getattr(owner, parts[-1])  # AttributeError when the name is gone
        return owner, parts[-1]
    raise ImportError(dotted)


class Tracer:
    """Flat span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.on = False
        self.cur = -1  # index of the span currently executing
        self.sids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self.missing: List[str] = []
        # Collections fire at arbitrary allocation points, including in the
        # middle of a wrapper's appends, so their spans live in arrays of
        # their own and join the others only at aggregation.
        self._gc_sid = self.span_id("gc.collect", "gc")
        self._gc_start = 0.0
        self._gc_parents = array("i")
        self._gc_starts = array("d")
        self._gc_ends = array("d")

    # -- span names ----------------------------------------------------
    def span_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    # -- wrapping ------------------------------------------------------
    def wrap(
        self,
        fn: Callable[..., Any],
        sid: int,
        tap: Optional[Callable[..., None]] = None,
        tap_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` recorded as one span per call.

        ``tap(*args)`` runs before the call and ``tap_result(result)``
        after it, so counts are taken at the same boundary as the time.
        """
        tr = self
        sids_append = self.sids.append
        parents_append = self.parents.append
        starts = self.starts
        starts_append = starts.append
        ends = self.ends
        ends_append = ends.append
        perf = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tr.on:
                return fn(*args, **kwargs)
            parent = tr.cur
            idx = len(starts)
            sids_append(sid)
            parents_append(parent)
            ends_append(0.0)
            tr.cur = idx
            if tap is not None:
                tap(*args)
            starts_append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                tr.cur = parent
            if tap_result is not None:
                tap_result(result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def install(
        self,
        taps: Optional[Dict[str, Callable[..., None]]] = None,
        result_taps: Optional[Dict[str, Callable[[Any], None]]] = None,
    ) -> None:
        """Wrap every target of :data:`SPAN_TABLE`; must run before nodes are built.

        Channel-handler closures capture bound methods when a node joins a
        channel, so a wrapper installed later would be bypassed.
        """
        taps = taps or {}
        result_taps = result_taps or {}
        for layer, targets in SPAN_TABLE.items():
            for target in targets:
                factory = target.endswith("()")
                dotted = target[:-2] if factory else target
                try:
                    owner, attr = _resolve(dotted)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    continue
                short = ".".join(target.split(".")[-2:])
                sid = self.span_id(short, layer)
                original = getattr(owner, attr)
                if factory:
                    wrapped = self._wrap_factory(original, sid)
                else:
                    wrapped = self.wrap(
                        original, sid, taps.get(dotted), result_taps.get(dotted)
                    )
                setattr(owner, attr, wrapped)
                if isinstance(owner, type(sys)):
                    _rebind_module_global(original, wrapped)
        gc.callbacks.append(self._on_gc)

    def _wrap_factory(self, factory: Callable[..., Any], sid: int) -> Callable[..., Any]:
        def make(*args: Any, **kwargs: Any) -> Any:
            return self.wrap(factory(*args, **kwargs), sid)

        return make

    def _on_gc(self, phase: str, _info: Dict[str, int]) -> None:
        if not self.on:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start:
            self._gc_parents.append(self.cur)
            self._gc_starts.append(self._gc_start)
            self._gc_ends.append(time.perf_counter())
            self._gc_start = 0.0

    # -- recording window ----------------------------------------------
    def begin(self) -> None:
        """Drop everything recorded so far and start recording."""
        for arr in self._arrays():
            del arr[:]
        self.cur = -1
        self.on = True

    def end(self) -> None:
        self.on = False

    def _arrays(self) -> Tuple[array, ...]:
        return (
            self.sids, self.parents, self.starts, self.ends,
            self._gc_parents, self._gc_starts, self._gc_ends,
        )

    @property
    def nbytes(self) -> int:
        """Memory held by the span arrays (24 bytes a span)."""
        return sum(len(a) * a.itemsize for a in self._arrays())

    def span_cost_s(self, calls: int = 200_000) -> float:
        """Measured cost of one wrapper round-trip, for the overhead estimate."""

        def noop(_a: object, _b: object) -> None:
            return None

        wrapped = self.wrap(noop, self._gc_sid)
        keep = len(self.starts)
        was_on, self.on = self.on, True
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped(1, 2)
        t1 = time.perf_counter()
        for _ in range(calls):
            noop(1, 2)
        t2 = time.perf_counter()
        self.on = was_on
        for arr in (self.sids, self.parents, self.starts, self.ends):
            del arr[keep:]
        return max((t1 - t0) - (t2 - t1), 0.0) / calls

    # -- aggregation ---------------------------------------------------
    def aggregate(self) -> Dict[str, Any]:
        """Per-name and per-layer calls / total / self seconds."""
        sids, parents, starts, ends = self._columns()
        dur = ends - starts
        n_names = len(self.names)
        calls = np.bincount(sids, minlength=n_names)
        total = np.bincount(sids, weights=dur, minlength=n_names)
        has_parent = parents >= 0
        # A child's whole duration is taken out of its parent's self time.
        covered = np.bincount(
            sids[parents[has_parent]], weights=dur[has_parent], minlength=n_names
        )
        self_s = total - covered
        by_name = [
            {
                "name": self.names[i],
                "layer": self.layer_of[i],
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
            }
            for i in range(n_names)
        ]
        by_layer = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for row in by_name:
            by_layer[row["layer"]]["calls"] += row["calls"]
            by_layer[row["layer"]]["self_s"] += row["self_s"]
        return {
            "spans": int(len(sids)),
            "root_s": float(dur[~has_parent].sum()),
            "by_name": by_name,
            "by_layer": by_layer,
        }

    def _columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(name index, parent index, start, end) of every span, collections last."""
        n_gc = len(self._gc_starts)
        return (
            np.concatenate(
                [np.frombuffer(self.sids, dtype=np.int32), np.full(n_gc, self._gc_sid, np.int32)]
            ),
            np.concatenate(
                [np.frombuffer(self.parents, dtype=np.int32),
                 np.frombuffer(self._gc_parents, dtype=np.int32)]
            ),
            np.concatenate(
                [np.frombuffer(self.starts, dtype=np.float64),
                 np.frombuffer(self._gc_starts, dtype=np.float64)]
            ),
            np.concatenate(
                [np.frombuffer(self.ends, dtype=np.float64),
                 np.frombuffer(self._gc_ends, dtype=np.float64)]
            ),
        )

    def raw(self) -> Dict[str, Any]:
        """The raw span list: ``[name index, start, end, parent index]`` rows."""
        sids, parents, starts, ends = self._columns()
        return {
            "names": self.names,
            "spans": list(zip(sids.tolist(), starts.tolist(), ends.tolist(), parents.tolist())),
        }


def _rebind_module_global(original: Any, wrapped: Any) -> None:
    """Point every ``repro.*`` module global that *is* ``original`` at ``wrapped``.

    ``from repro.runtime.wire import encode_packet`` copies the function
    into the importer's namespace; patching the defining module alone
    would leave those callers untraced.
    """
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)
