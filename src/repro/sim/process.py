"""One-shot completion events.

An :class:`Event` is the completion handle of the request/response code
(gateways, consumers, the proxy, the search app): the requester registers
a callback, the responder calls :meth:`Event.succeed`, and the callback
runs through the event queue at the current virtual time.

Example
-------
>>> from repro.sim import Event, Simulator
>>> sim = Simulator()
>>> done = Event(sim)
>>> seen = []
>>> done._add_waiter(seen.append)
>>> _ = sim.call_at(2.0, done.succeed, "reply")
>>> _ = sim.run()
>>> seen
['reply']
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import SimulationError, Simulator

__all__ = ["Event"]


class Event:
    """One-shot signalling primitive.

    A callback registered while the event is pending runs once some other
    code calls :meth:`succeed`, with the value passed to it.  Succeeding
    twice is an error; registering on an already-succeeded event resumes
    immediately.
    """

    __slots__ = ("sim", "_value", "_done", "_waiters")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._value: Any = None
        self._done = False
        self._waiters: list[Callable[[Any], None]] = []

    @property
    def triggered(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise SimulationError("event has not triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> None:
        """Trigger the event, resuming all waiters at the current time."""
        if self._done:
            raise SimulationError("event already triggered")
        self._done = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for resume in waiters:
            # Resume via the event queue so ordering stays deterministic and
            # succeed() never recursively re-enters a waiter mid-callback.
            self.sim.call_at(self.sim.now, resume, value)

    def _add_waiter(self, resume: Callable[[Any], None]) -> None:
        if self._done:
            self.sim.call_at(self.sim.now, resume, self._value)
        else:
            self._waiters.append(resume)
