"""Deterministic discrete-event simulation kernel.

This package is the execution substrate for every protocol in :mod:`repro`.
The paper's evaluation ran on a 100-node Linux cluster; we replace wall-clock
time, OS threads and real sockets with a single-threaded event loop whose
virtual clock advances from event to event.  Everything that happens in a
simulation — heartbeat timers, packet deliveries, failure injections — is an
event scheduled on one :class:`~repro.sim.engine.Simulator`.

Design notes
------------
* **Determinism.**  Events firing at the same virtual time are ordered by a
  monotonically increasing sequence number, and all randomness flows through
  named, seeded streams (:class:`~repro.sim.rng.RngRegistry`).  A run is fully
  reproducible from ``(topology, scenario, seed)``.
* **One programming style.**  Plain callbacks via
  :meth:`Simulator.call_at` / :meth:`Simulator.call_after`; a request
  waiting on a reply registers its callback on a one-shot
  :class:`~repro.runtime.ports.Event`, which resumes it through the
  node's runtime.
* **Performance.**  The hot path is a ``heapq`` of tuples; no per-event
  object allocation beyond the scheduled entry itself.  (See the repo's
  profiling notes: the kernel was written simple first and optimised only
  where the Fig. 11-13 sweeps showed cost.)
"""

from repro.sim.engine import Simulator, ScheduledEvent, SimulationError
from repro.sim.rng import RngRegistry
from repro.sim.trace import Trace, TraceRecord

__all__ = [
    "Simulator",
    "ScheduledEvent",
    "SimulationError",
    "RngRegistry",
    "Trace",
    "TraceRecord",
]
