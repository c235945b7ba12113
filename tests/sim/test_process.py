"""Unit tests for the one-shot completion :class:`Event`."""

import pytest

from repro.sim import Event, Simulator, SimulationError


def test_event_wakes_waiter_with_value():
    sim = Simulator()
    ev = Event(sim)
    seen = []
    ev._add_waiter(lambda value: seen.append((sim.now, value)))
    sim.call_at(2.0, ev.succeed, "hello")
    sim.run()
    assert seen == [(2.0, "hello")]


def test_event_multiple_waiters():
    sim = Simulator()
    ev = Event(sim)
    seen = []
    ev._add_waiter(lambda value: seen.append(("a", value)))
    ev._add_waiter(lambda value: seen.append(("b", value)))
    sim.call_at(1.0, ev.succeed, 7)
    sim.run()
    assert seen == [("a", 7), ("b", 7)]  # registration order, via the queue


def test_yield_already_triggered_event_resumes_immediately():
    """A waiter that arrives after ``succeed`` still runs — at its own time."""
    sim = Simulator()
    ev = Event(sim)
    seen = []
    sim.call_at(1.0, ev.succeed, "early")
    sim.call_at(5.0, ev._add_waiter, lambda value: seen.append((sim.now, value)))
    sim.run()
    assert seen == [(5.0, "early")]


def test_succeed_does_not_reenter_waiters_synchronously():
    sim = Simulator()
    ev = Event(sim)
    seen = []
    ev._add_waiter(seen.append)
    ev.succeed("queued")
    assert seen == [] and ev.triggered
    sim.run()
    assert seen == ["queued"]


def test_event_double_succeed_raises():
    sim = Simulator()
    ev = Event(sim)
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = Event(sim)
    with pytest.raises(SimulationError):
        _ = ev.value
    ev.succeed(3)
    assert ev.value == 3
