"""Timer-wheel guards: event order, cancel/re-arm semantics, recycling.

The wheel uses *lazy deletion*: ``cancel()`` flags the queued entry and
the run loop skips it when popped.  The classic blind spot of that
scheme is a timer that is cancelled and then re-armed for the **same
tick** — if the replacement reuses (or collides with) the stale queue
entry, the callback fires twice in one instant.  These tests pin the
single-firing behaviour, the free-list recycling contract for
kernel-owned batch events, and — against a naive in-test model — the
exact ``(time, priority, seq)`` firing order across every lane.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, SimulationError
from repro.sim.engine import _FREE_MAX


class TestCancelRearmSameTick:
    """A cancelled recurring timer re-armed in the same tick fires once."""

    def test_external_cancel_and_rearm_same_tick(self):
        sim = Simulator()
        fires = []
        old = sim.call_every(1.0, lambda: fires.append(("old", sim.now)))

        def swap():
            # Runs at t=3.0 *before* the old timer's queued firing: the
            # stale entry is already in the queue for this very tick.
            old.cancel()
            sim.call_every(
                1.0, lambda: fires.append(("new", sim.now)), first_delay=0.0
            )

        sim.call_at(3.0, swap, priority=-1)
        sim.run(until=5.0)
        assert fires == [
            ("old", 1.0),
            ("old", 2.0),
            ("new", 3.0),
            ("new", 4.0),
            ("new", 5.0),
        ]

    def test_cancel_from_inside_own_callback_with_replacement(self):
        sim = Simulator()
        fires = []
        holder = {}

        def tick():
            fires.append(sim.now)
            if sim.now == 2.0:
                # Self-cancel mid-callback and re-arm a replacement with
                # the same period: the old series must not fire at 3.0.
                holder["t"].cancel()
                holder["t"] = sim.call_every(1.0, tick)

        holder["t"] = sim.call_every(1.0, tick)
        sim.run(until=4.0)
        assert fires == [1.0, 2.0, 3.0, 4.0]

    def test_cancelled_timer_never_fires_again(self):
        sim = Simulator()
        fires = []
        timer = sim.call_every(1.0, lambda: fires.append(sim.now))
        sim.call_at(2.5, timer.cancel)
        sim.run(until=10.0)
        assert fires == [1.0, 2.0]

    def test_double_cancel_is_idempotent(self):
        sim = Simulator()
        fires = []
        timer = sim.call_every(1.0, lambda: fires.append(sim.now))
        sim.run(until=1.0)
        timer.cancel()
        timer.cancel()
        sim.run(until=3.0)
        assert fires == [1.0]


class TestFreeListRecycling:
    """Kernel-owned batch events are recycled through the free-list."""

    def test_owned_event_object_reused_after_firing(self):
        sim = Simulator()
        seen = []
        first = sim.call_at_batch(1.0, seen.extend, ["a"], owned=True)
        sim.run(until=1.0)
        second = sim.call_at_batch(2.0, seen.extend, ["b"], owned=True)
        assert second is first  # same object, recycled via the free-list
        sim.run(until=2.0)
        assert seen == ["a", "b"]

    def test_unowned_event_never_recycled(self):
        sim = Simulator()
        first = sim.call_at_batch(1.0, lambda batch: None, ["a"])
        sim.run(until=1.0)
        second = sim.call_at_batch(2.0, lambda batch: None, ["b"])
        assert second is not first

    def test_cancelled_owned_event_does_not_fire_or_resurrect(self):
        sim = Simulator()
        seen = []
        ev = sim.call_at_batch(1.0, seen.extend, ["dead"], owned=True)
        ev.cancel()
        # New owned work scheduled for the same tick must not collide
        # with the cancelled entry still sitting in the queue.
        sim.call_at_batch(1.0, seen.extend, ["live"], owned=True)
        sim.run(until=5.0)
        assert seen == ["live"]

    def test_free_list_is_bounded(self):
        sim = Simulator()
        n = _FREE_MAX + 100
        for i in range(n):
            sim.call_at_batch(1.0, lambda batch: None, [i], owned=True)
        sim.run(until=1.0)
        assert len(sim._free) <= _FREE_MAX

    def test_recycled_event_keeps_trigger_semantics(self):
        # A recycled object must behave like a fresh one: new time, new
        # payload, cancellable before firing.
        sim = Simulator()
        seen = []
        first = sim.call_at_batch(1.0, seen.extend, ["a"], owned=True)
        sim.run(until=1.0)
        second = sim.call_at_batch(2.0, seen.extend, ["b"], owned=True)
        assert second is first
        second.cancel()
        sim.run(until=3.0)
        assert seen == ["a"]


def test_negative_start_time_rejected():
    with pytest.raises(SimulationError):
        Simulator(start_time=-1.0)


def test_event_scheduled_between_runs_fires_before_matured_far_event():
    # run(until=...) ends with a peek, which matures the lone ``inf`` event;
    # work scheduled afterwards must still fire ahead of it.
    sim = Simulator()
    order = []
    sim.call_at(math.inf, order.append, "end")
    sim.run(until=10.0)
    sim.call_at(11.0, order.append, "x")
    sim.call_at(math.inf, order.append, "first-at-end", priority=-1)
    assert sim.run(until=20.0) == 20.0
    assert order == ["x"]
    sim.run()
    assert order == ["x", "first-at-end", "end"]


# ----------------------------------------------------------------------
# Firing order against a naive model
# ----------------------------------------------------------------------
#: Delays that land an event in each lane of the wheel: the slot being
#: drained (same tick), the fine ring (< 8 s), the coarse ring (< 128 s)
#: and the far heap — including times beyond slot arithmetic (>= 2**40)
#: and ``inf``.
_delays = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1.0 / 256),
    st.floats(min_value=0.0, max_value=8.0),
    st.floats(min_value=8.0, max_value=128.0),
    st.floats(min_value=128.0, max_value=1e6),
    st.sampled_from([float(1 << 40), float(1 << 40) + 1.0, 2.0**60, math.inf]),
)


@st.composite
def _scripts(draw):
    """Events as ``(parent, delay, priority, cancels)`` rows.

    Row *i* is scheduled ``delay`` after its parent fires (parent ``-1``:
    at time zero, before the run) and, when it fires itself, cancels row
    ``cancels`` if that row has been scheduled by then.
    """
    n = draw(st.integers(min_value=1, max_value=25))
    return [
        (
            draw(st.integers(min_value=-1, max_value=i - 1)),
            draw(_delays),
            draw(st.integers(min_value=-1, max_value=1)),
            draw(st.one_of(st.none(), st.integers(min_value=0, max_value=n - 1))),
        )
        for i in range(n)
    ]


def _model_order(script, untils):
    """Always fire ``min(pending)`` by ``(time, priority, seq)``: a list and min()."""
    pending = []  # [time, priority, seq, row]
    seq = 0
    fired = []

    def schedule(parent, now):
        nonlocal seq
        for row, (par, delay, priority, _cancels) in enumerate(script):
            if par == parent:
                pending.append([now + delay, priority, seq, row])
                seq += 1

    schedule(-1, 0.0)
    for until in untils:
        while pending:
            item = min(pending)
            if item[0] > until:
                break
            pending.remove(item)
            row = item[3]
            fired.append((row, item[0]))
            schedule(row, item[0])
            cancels = script[row][3]
            pending[:] = [p for p in pending if p[3] != cancels]
    return fired


def _wheel_order(script, untils):
    sim = Simulator()
    handles = {}
    fired = []

    def schedule(parent):
        for row, (par, delay, priority, _cancels) in enumerate(script):
            if par == parent:
                handles[row] = sim.call_after(delay, fire, row, priority=priority)

    def fire(row):
        fired.append((row, sim.now))
        schedule(row)
        target = handles.get(script[row][3])
        if target is not None:
            target.cancel()

    schedule(-1)
    for until in untils:
        sim.run(until=None if until == math.inf else until)
    return fired


@given(
    _scripts(),
    st.lists(st.floats(min_value=0.0, max_value=300.0), max_size=4).map(sorted),
)
@settings(max_examples=300, deadline=None)
def test_wheel_fires_in_time_priority_seq_order(script, untils):
    untils = untils + [math.inf]  # the last piece drains the queue
    assert _wheel_order(script, untils) == _model_order(script, untils)
