"""Shard-local simulator with shard-count-invariant event keys.

The plain :class:`~repro.sim.engine.Simulator` orders same-instant events
by a global integer sequence — an *execution-order* artifact that differs
between one merged queue and N per-shard queues.  The sharded kernel
therefore replaces the integer with a **derivation-tree key**: every
event's ``seq`` is a tuple extending the key of the event (or deployment
context) that scheduled it.  Because a callback executes identically
whichever shard it lives on, the keys it hands out are a pure function of
the causal history — identical for every shard count — and the global
order ``(time, priority, seq)`` merges per-shard traces into one total
order that never depends on how the work was partitioned.

Key shapes
----------
* deployment root of host rank *r* — ``(r,)``
* runner control operation *i* (crash/stop/...) — ``(-1, i)``
* the *n*-th event scheduled by an event keyed ``K`` — ``K + (n,)``
* the *k*-th re-arm of a recurring timer first keyed ``B`` —
  ``B + (-1, k)`` (the ``-1`` marker cannot collide with child indices,
  which are always ≥ 0)
* the *b*-th delay bucket of cross-segment multicast descriptor ``D``
  delivered into segment *s* — ``D + (s, b)``; copy *c* of unicast
  descriptor ``D`` — ``D + (c,)`` (both scheduled at a barrier, via
  :meth:`ShardSimulator.call_at_keyed`; one event never spans two
  segments, so it never spans two shards).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple, cast

from repro.sim.engine import (
    RecurringTimer,
    ScheduledEvent,
    Simulator,
    SimulationError,
)

__all__ = ["ShardSimulator"]

#: An event key: a tuple of small ints (see module docstring).
Key = Tuple[int, ...]

#: Root context before any deployment rank is set.
_UNSET_ROOT: Key = (-2,)


class _KeyAlloc:
    """Replacement for the kernel's ``itertools.count`` sequence source.

    ``next()`` returns ``parent_key + (n,)`` where ``parent_key`` is the
    seq of the currently-executing event (or the explicit root context)
    and ``n`` counts allocations under that parent.  Event seqs are
    globally unique, so a parent context is never re-entered and a value
    comparison is enough to reset the child counter.
    """

    __slots__ = ("_sim", "_parent", "_n")

    def __init__(self, sim: "ShardSimulator") -> None:
        self._sim = sim
        self._parent: Optional[Key] = None
        self._n = 0

    def __next__(self) -> Key:
        cur = self._sim._current
        parent: Key = cur.seq if cur is not None else self._sim._root
        if parent != self._parent:
            self._parent = parent
            self._n = 0
        n = self._n
        self._n = n + 1
        return parent + (n,)


class _ShardRecurringTimer(RecurringTimer):
    """Recurring timer whose re-arms stay at bounded key depth.

    The base timer re-keys its event through the sequence source, which
    under :class:`_KeyAlloc` would nest one level per period.  Here the
    *k*-th re-arm is keyed ``base + (-1, k)`` — still unique (child
    indices are never negative), still deterministic, and flat.
    """

    __slots__ = ("_base_key", "_fires")

    def __init__(
        self,
        sim: "ShardSimulator",
        period: float,
        fn: Callable[..., Any],
        args: tuple,
        first_at: float,
        priority: int,
    ) -> None:
        super().__init__(sim, period, fn, args, first_at, priority)
        self._base_key: Key = self._ev.seq
        self._fires = 0

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.fn(*self.args)
        if self.cancelled:
            return
        sim = self._sim
        ev = self._ev
        self._fires += 1
        ev.time = sim._now + self.period
        ev.seq = self._base_key + (-1, self._fires)
        ev.sort_key = (ev.time, ev.priority, ev.seq)
        sim._wheel.schedule(ev)


class ShardSimulator(Simulator):
    """A :class:`Simulator` whose event order is shard-count invariant.

    Everything about execution (the timer wheel, ``run``,
    ``run_window``, cancellation) is inherited; only the sequence source
    and the recurring-timer re-arm are swapped for the tuple-key scheme,
    plus two extras the barrier runner needs:

    * :meth:`set_root` — names the deployment/control context whose
      direct scheduling (node start, crash ops) must be keyed
      identically in every shard count;
    * :meth:`call_at_keyed` — schedules an event under an explicit key
      (barrier-merged cross-shard deliveries carry their descriptor
      key so both sides of the merge agree on the order).
    """

    def __init__(self, start_time: float = 0.0) -> None:
        super().__init__(start_time)
        self._seq = _KeyAlloc(self)  # type: ignore[assignment]
        self._root: Key = _UNSET_ROOT

    # ------------------------------------------------------------------
    # Contexts
    # ------------------------------------------------------------------
    def set_root(self, key: Key) -> None:
        """Enter an out-of-event scheduling context (deploy / control op)."""
        self._root = tuple(key)
        self._current = None

    def current_key(self) -> Tuple[int, Key]:
        """(priority, seq) of the executing event, or the root context."""
        cur = self._current
        if cur is not None:
            return (cur.priority, cur.seq)
        return (0, self._root)

    def next_key(self) -> Key:
        """Allocate a child key under the current context (see _KeyAlloc)."""
        # ``_seq`` is typed by the base class as the integer counter; here
        # it is the tuple-key allocator installed in ``__init__``.
        return cast(Key, next(self._seq))

    # ------------------------------------------------------------------
    # Scheduling overrides
    # ------------------------------------------------------------------
    def call_every(
        self,
        period: float,
        fn: Callable[..., Any],
        *args: Any,
        first_delay: Optional[float] = None,
        priority: int = 0,
    ) -> RecurringTimer:
        if period <= 0:
            raise SimulationError(f"non-positive period {period!r}")
        delay = period if first_delay is None else first_delay
        if delay < 0:
            raise SimulationError(f"negative first_delay {first_delay!r}")
        return _ShardRecurringTimer(self, period, fn, args, self._now + delay, priority)

    def call_at_keyed(
        self,
        time: float,
        key: Key,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> ScheduledEvent:
        """Schedule under an explicit, caller-guaranteed-unique key."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f} < now={self._now:.6f}"
            )
        ev = ScheduledEvent(float(time), priority, key, fn, args)
        self._wheel.schedule(ev)
        return ev
