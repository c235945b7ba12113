"""The discrete-event simulator core.

A :class:`Simulator` owns a virtual clock and a queue of scheduled
callbacks.  :meth:`Simulator.run` pops events in ``(time, priority, seq)``
order and executes them until the queue drains, a time horizon is reached, or
a stop is requested.

The queue is a **hierarchical timer wheel**: events are bucketed by time
quantum into fine slots (1/256 s), a coarse one-second ring, or a
far-future overflow heap, and only the events of the slot currently being
drained live in a tiny "ready" heap.  Scheduling into an occupied slot is
an O(1) append instead of an O(log n) sift over the whole pending set,
which is what keeps per-event cost flat as the heartbeat/purge timer
population grows with cluster size.

The wheel executes the exact ``(time, priority, seq)`` total order — the
order a single min-heap over all pending events would give — which
``tests/sim/test_timer_wheel.py`` checks against a naive model and the
golden SHA-256 traces of the determinism guard pin end to end.

The kernel is deliberately small: multicast fabrics, transports, protocol
nodes and experiment harnesses are all built on these few primitives.
"""

from __future__ import annotations

import itertools
import math
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional

__all__ = [
    "Simulator",
    "ScheduledEvent",
    "RecurringTimer",
    "TimerWheel",
    "SimulationError",
    "Event",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, re-running, ...)."""


class ScheduledEvent:
    """Handle for a scheduled callback; supports O(1) cancellation.

    Cancellation marks the entry dead rather than removing it from the
    queue; the run loop skips dead entries when they surface.  This keeps
    both :meth:`Simulator.call_at` and :meth:`cancel` cheap, which matters
    because heartbeat-timeout style protocols cancel timers constantly.

    ``owned`` marks kernel-owned entries (batch deliveries whose handle the
    caller promises not to retain): after firing, the run loop recycles the
    object through the simulator's free-list instead of leaving it to the
    allocator.  An event is only ever recycled *after* it has surfaced from
    the queue — never at ``cancel()`` time — so a stale handle can never
    alias a reused entry that is still queued (the classic lazy-deletion
    blind spot).
    """

    __slots__ = (
        "time", "priority", "seq", "fn", "args", "cancelled", "sort_key", "owned",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        # An opaque same-instant tiebreaker: a monotonic int under the
        # plain kernel, a derivation-tree tuple under the sharded kernel
        # (repro.shard.engine).  Only ordering is ever relied on.
        seq: Any,
        fn: Callable[..., Any],
        args: tuple,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.owned = False
        # Precomputed so heap sifts compare one tuple instead of building
        # two on every __lt__ — the single hottest comparison in the kernel.
        self.sort_key = (time, priority, seq)

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        self.cancelled = True
        # Drop references eagerly: a cancelled timer should not pin its
        # closure (and transitively a dead node's state) until it surfaces.
        self.fn = _noop
        self.args = ()

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return self.sort_key < other.sort_key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent t={self.time:.6f} prio={self.priority} seq={self.seq} {state}>"


def _noop(*_args: Any) -> None:
    return None


#: Fine slots per second (and its log2).  1/256 s ≈ 3.9 ms resolution: well
#: under the smallest delays the fabrics draw, so same-instant bursts share
#: one slot while distinct protocol deadlines almost never collide.
_SHIFT = 8
_FINE = 1 << _SHIFT
_G = 1.0 / _FINE
#: Fine-slot horizon: 8 s of 1/256 s slots ahead of the cursor.
_NEAR_SLOTS = 2048.0
#: Coarse-ring horizon in whole seconds ahead of the cursor's second.
_COARSE_SPAN = 128.0
#: Beyond this virtual time, slot arithmetic would lose integer exactness
#: (and ``inf`` is legal): such events bypass the wheel entirely.
_FAR_DIRECT = float(1 << 40)
#: Free-list bound: recycled event objects kept around for reuse.
_FREE_MAX = 4096


class TimerWheel:
    """Hierarchical slot-based timer queue with a matured-event heap.

    Layout
    ------
    * ``ready`` — min-heap (by ``sort_key``) of events whose slot has been
      drained; the run loop pops exclusively from here.
    * ``near`` — dict of fine slot index (``floor(t * 256)``) → event list,
      for events within 8 s of the cursor; ``near_heap`` tracks occupied
      slot indices (lazily deduplicated ints, far cheaper to sift than
      events).
    * ``coarse`` — dict of whole second → event list for events within
      128 s; a bucket is exploded into fine slots when the cursor nears it.
    * ``far`` — plain event heap for everything beyond the coarse horizon
      (long purge backstops, ``inf`` sentinels).

    Once only events beyond slot arithmetic (``time >= 2**40``) remain,
    ``far`` becomes ``ready`` wholesale and the cursor goes to ``inf``:
    from then on every event is filed in ``ready`` and the wheel is a
    plain heap.

    Correctness invariant: every pending event with fine slot ≤ ``cursor``
    is in ``ready``; every other lane only holds slots > ``cursor``.  An
    event in ``ready`` therefore has ``time < (cursor + 1)/256`` while any
    undrained event has ``time ≥ (cursor + 1)/256`` — so ``ready[0]`` is
    always the global minimum and events fire in exact
    ``(time, priority, seq)`` order.
    """

    __slots__ = (
        "ready", "near", "near_heap", "coarse", "coarse_heap", "far", "cursor",
    )

    def __init__(self, now: float) -> None:
        self.ready: List[ScheduledEvent] = []
        self.near: dict[int, List[ScheduledEvent]] = {}
        self.near_heap: List[int] = []
        self.coarse: dict[int, List[ScheduledEvent]] = {}
        self.coarse_heap: List[int] = []
        self.far: List[ScheduledEvent] = []
        #: All slots ≤ cursor have been drained into ``ready``.  A slot
        #: index, or ``inf`` once the wheel has become a plain heap.
        self.cursor: float = int(now * _FINE)

    def pending(self) -> int:
        """Queued (possibly cancelled) entries.  O(occupied slots): this is
        a sampled observability figure, not hot-path state, so the wheel
        does not pay a per-event counter for it."""
        return (
            len(self.ready)
            + sum(map(len, self.near.values()))
            + sum(map(len, self.coarse.values()))
            + len(self.far)
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, ev: ScheduledEvent) -> None:
        """File ``ev`` into the lane its time falls in.  O(1) amortised."""
        t = ev.time
        c = self.cursor
        ts = t * 256.0  # exact: multiplication by a power of two
        if ts < c + 1.0:
            # Slot already drained (same-tick scheduling): matured lane.
            heappush(self.ready, ev)
        elif ts < c + _NEAR_SLOTS:
            s = int(ts)
            near = self.near
            lst = near.get(s)
            if lst is None:
                near[s] = [ev]
                heappush(self.near_heap, s)
            else:
                lst.append(ev)
        elif t < _FAR_DIRECT and t < c // _FINE + _COARSE_SPAN:
            s = int(t)
            coarse = self.coarse
            lst = coarse.get(s)
            if lst is None:
                coarse[s] = [ev]
                heappush(self.coarse_heap, s)
            else:
                lst.append(ev)
        else:
            # An infinite cursor passes every finite time to ``ready``
            # above; ``inf`` itself lands here.
            heappush(self.ready if c == math.inf else self.far, ev)

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def advance(self) -> bool:
        """Drain the earliest undrained slot's live events into ``ready``.

        Precondition: ``ready`` is empty.  Returns ``False`` when nothing
        is pending anywhere; otherwise ``ready`` is non-empty afterwards.
        """
        near, near_heap = self.near, self.near_heap
        coarse, coarse_heap = self.coarse, self.coarse_heap
        far, ready = self.far, self.ready
        while True:
            while near_heap and near_heap[0] not in near:
                heappop(near_heap)  # stale index: slot drained earlier
            ns = near_heap[0] if near_heap else None
            while coarse_heap and coarse_heap[0] not in coarse:
                heappop(coarse_heap)
            cs = coarse_heap[0] if coarse_heap else None
            if cs is not None and (
                (ns is None or (cs << _SHIFT) <= ns)
                and (not far or cs <= far[0].time)
            ):
                # The coarse bucket may hold fine slots earlier than any
                # other candidate: explode it into the near ring first.
                heappop(coarse_heap)
                for bev in coarse.pop(cs):
                    s = int(bev.time * 256.0)
                    lst = near.get(s)
                    if lst is None:
                        near[s] = [bev]
                        heappush(near_heap, s)
                    else:
                        lst.append(bev)
                continue
            if ns is None:
                if not far:
                    return False
                f0 = far[0].time
                if f0 >= _FAR_DIRECT:
                    # Beyond slot arithmetic (huge horizon or inf) and
                    # nothing nearer pending: ``far`` holds everything and
                    # is already a heap, so it becomes ``ready`` as it is,
                    # and the infinite cursor files every later event there
                    # too — whatever its time or priority, the heap orders
                    # it against the events matured here.
                    ready[:] = far
                    del far[:]
                    self.cursor = math.inf
                    return True
                items = []
                target = int(f0 * 256.0)
                bound = (target + 1) * _G
                while far and far[0].time < bound:
                    items.append(heappop(far))
                self.cursor = target
            else:
                if far and far[0].time < ns * _G:
                    target = int(far[0].time * 256.0)
                    items = []
                else:
                    target = ns
                    heappop(near_heap)
                    items = near.pop(ns)
                bound = (target + 1) * _G
                while far and far[0].time < bound:
                    items.append(heappop(far))
                self.cursor = target
            live = [ev for ev in items if not ev.cancelled]
            if live:
                ready[:] = live
                heapify(ready)
                return True
            # Every entry in the slot was cancelled: keep advancing.

    def peek(self) -> Optional[float]:
        """Time of the next live event, or None.  Drops cancelled heads."""
        ready = self.ready
        while True:
            while ready and ready[0].cancelled:
                heappop(ready)
            if ready:
                return ready[0].time
            if not self.advance():
                return None


class RecurringTimer:
    """Handle for a :meth:`Simulator.call_every` periodic callback.

    One timer owns ONE :class:`ScheduledEvent` that is re-keyed and filed
    back into the queue after each firing, so a periodic tick costs zero
    allocations per period (no new closure, no new handle) — the point of
    the primitive for heartbeat/status-tracker ticks that previously
    re-created both every period.

    Ordering contract: the next occurrence's sequence number is allocated
    *after* the callback body runs, exactly like the idiom of a
    callback whose last statement is ``sim.call_after(period, itself)``.
    Same-seed runs are therefore trace-identical whichever form is used.

    Re-arm safety: the event is re-filed only from :meth:`_fire`, i.e.
    strictly after it surfaced from the queue — so the one event object can
    never be queued twice, and a timer cancelled and replaced within the
    same tick cannot make the replacement fire twice (regression-tested
    in ``tests/sim/test_timer_wheel.py``).
    """

    __slots__ = ("_sim", "period", "fn", "args", "cancelled", "_ev")

    def __init__(
        self,
        sim: "Simulator",
        period: float,
        fn: Callable[..., Any],
        args: tuple,
        first_at: float,
        priority: int,
    ) -> None:
        self._sim = sim
        self.period = period
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._ev = sim.call_at(first_at, self._fire, priority=priority)

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.fn(*self.args)
        if self.cancelled:
            # The callback cancelled its own timer: do not re-arm.
            return
        sim = self._sim
        ev = self._ev
        ev.time = sim._now + self.period
        ev.seq = next(sim._seq)
        ev.sort_key = (ev.time, ev.priority, ev.seq)
        sim._wheel.schedule(ev)

    def cancel(self) -> None:
        """Stop firing.  Idempotent; safe from inside the callback."""
        self.cancelled = True
        # Break the reference cycle and let the queued entry (if any) be
        # skipped by the run loop; fn/args are dropped like ScheduledEvent's.
        self._ev.cancel()
        self.fn = _noop
        self.args = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "armed"
        return f"<RecurringTimer period={self.period:.6f} {state}>"


class Simulator:
    """Single-threaded deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock, in seconds.  Must be
        non-negative (the wheel's slot arithmetic assumes it); a negative
        value raises :class:`SimulationError`.  Nothing in ``src/``,
        ``benchmarks/`` or ``examples/`` passes one.

    Notes
    -----
    Events scheduled for the same instant fire in ``(priority, seq)`` order
    where ``seq`` is the global scheduling order.  Lower priority values fire
    first; the default priority is 0.  Protocol code should not rely on
    priorities except to model genuinely ordered mechanisms (e.g. "deliver
    the packet before the timeout that was armed later").
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        if not self._now >= 0.0:
            raise SimulationError(
                f"start_time must be non-negative, got {start_time!r}"
            )
        self._wheel = TimerWheel(self._now)
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self._events_executed = 0
        self._free: list[ScheduledEvent] = []
        #: The event whose callback is currently executing (None between
        #: events).  The sharded kernel derives deterministic child event
        #: keys from it; the base simulator only maintains it.
        self._current: Optional[ScheduledEvent] = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of callbacks executed so far (for perf accounting)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of queued (possibly cancelled) entries; O(occupied slots)."""
        return self._wheel.pending()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> ScheduledEvent:
        """Schedule ``fn(*args)`` at absolute virtual ``time``.

        Returns a :class:`ScheduledEvent` that may be cancelled.  Scheduling
        strictly in the past raises :class:`SimulationError`; scheduling at
        exactly ``now`` is allowed and fires after currently-executing work.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f} < now={self._now:.6f}"
            )
        if math.isnan(time):
            raise SimulationError("cannot schedule at NaN time")
        ev = ScheduledEvent(float(time), priority, next(self._seq), fn, args)
        self._wheel.schedule(ev)
        return ev

    def call_after(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> ScheduledEvent:
        """Schedule ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.call_at(self._now + delay, fn, *args, priority=priority)

    def call_every(
        self,
        period: float,
        fn: Callable[..., Any],
        *args: Any,
        first_delay: Optional[float] = None,
        priority: int = 0,
    ) -> RecurringTimer:
        """Schedule ``fn(*args)`` every ``period`` seconds of virtual time.

        ``first_delay`` defaults to ``period``; pass a different value to
        phase-shift the first firing (e.g. a randomised heartbeat phase).
        Returns a :class:`RecurringTimer` whose ``cancel()`` stops the
        series.  After each firing the *same* event object is re-keyed and
        filed back, so steady-state ticking allocates nothing per period.
        """
        if period <= 0:
            raise SimulationError(f"non-positive period {period!r}")
        delay = period if first_delay is None else first_delay
        if delay < 0:
            raise SimulationError(f"negative first_delay {first_delay!r}")
        return RecurringTimer(self, period, fn, args, self._now + delay, priority)

    def call_at_batch(
        self,
        time: float,
        fn: Callable[..., Any],
        batch: Any,
        *shared: Any,
        priority: int = 0,
        owned: bool = False,
    ) -> ScheduledEvent:
        """Schedule ``fn(batch, *shared)`` at ``time`` as ONE queue entry.

        The fan-out primitive: a sender with *n* same-instant receivers
        passes them as a single batch, so the queue sees one entry instead
        of *n* — the callee loops over the batch itself.  Semantically
        equivalent to ``call_at`` with the same arguments, but skips the
        defensive time checks: callers are batch schedulers that already
        validated a non-negative delay.

        ``owned=True`` declares that the caller discards the returned
        handle (it remains valid to cancel *before* the event fires, but
        must not be retained past that): the kernel then recycles the event
        object through a free-list after it fires, eliminating the per-batch
        allocation.  The delivery fabrics pass ``owned=True``.
        """
        seq = next(self._seq)
        free = self._free
        if owned and free:
            ev = free.pop()
            ev.time = time
            ev.priority = priority
            ev.seq = seq
            ev.fn = fn
            ev.args = (batch, *shared)
            ev.cancelled = False
            ev.sort_key = (time, priority, seq)
        else:
            ev = ScheduledEvent(time, priority, seq, fn, (batch, *shared))
            ev.owned = owned
        self._wheel.schedule(ev)
        return ev

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stopped = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Execute events until the queue drains or a limit is hit.

        Parameters
        ----------
        until:
            Inclusive time horizon.  Events scheduled strictly after
            ``until`` remain queued and the clock is advanced to ``until``.
        max_events:
            Safety valve for runaway simulations.

        Returns
        -------
        float
            The virtual time when the run stopped.
        """
        if self._running:
            raise SimulationError("run() is not re-entrant")
        self._running = True
        self._stopped = False
        try:
            executed = 0
            wheel = self._wheel
            ready = wheel.ready
            advance = wheel.advance
            free = self._free
            while not self._stopped:
                if not ready and not advance():
                    break
                ev = ready[0]
                if ev.cancelled:
                    heappop(ready)
                    continue
                if until is not None and ev.time > until:
                    break
                heappop(ready)
                self._now = ev.time
                self._current = ev
                ev.fn(*ev.args)
                self._current = None
                self._events_executed += 1
                if ev.owned and not ev.cancelled:
                    ev.fn = _noop
                    ev.args = ()
                    if len(free) < _FREE_MAX:
                        free.append(ev)
                executed += 1
                if max_events is not None and executed >= max_events:
                    break
            if until is not None and not self._stopped and self._now < until:
                # Advance the clock to `until` iff no live work at or
                # before `until` remains queued.  peek() drops cancelled
                # heads first so the check is exact — a dead entry must
                # neither mask pending work (max_events break with live
                # events behind a cancelled head) nor hold the clock back.
                # It may pre-drain a slot, which is safe: matured events
                # keep their exact keys in the ready heap.
                nxt = wheel.peek()
                if nxt is None or nxt > until:
                    self._now = until
            return self._now
        finally:
            self._running = False

    def run_window(self, end: float) -> float:
        """Drain every event with ``time < end``, then set the clock to ``end``.

        The window-bounded primitive of the conservative parallel kernel:
        a shard runs its local queue up to (but excluding) the barrier
        time, after which cross-shard traffic produced inside the window
        is exchanged and merged.  Events scheduled at exactly ``end``
        belong to the *next* window — barrier-injected deliveries landing
        precisely on a window edge therefore execute after that barrier,
        identically for every shard count.
        """
        limit = math.nextafter(end, -math.inf)
        if limit > self._now:
            self.run(until=limit)
        if end > self._now:
            self._now = end
        return self._now

    def step(self) -> bool:
        """Execute exactly one pending event.  Returns False if none remain."""
        wheel = self._wheel
        ready = wheel.ready
        while True:
            if not ready and not wheel.advance():
                return False
            ev = heappop(ready)
            if ev.cancelled:
                continue
            self._now = ev.time
            self._current = ev
            ev.fn(*ev.args)
            self._current = None
            self._events_executed += 1
            return True

    def peek(self) -> Optional[float]:
        """Time of the next live event, or None if the queue is empty."""
        return self._wheel.peek()


class Event:
    """One-shot completion handle of the request/response code.

    Gateways, consumers, the proxy and the search app hand one to a
    requester: a callback registered while the event is pending runs once
    some other code calls :meth:`succeed`, with the value passed to it,
    through the event queue at the current virtual time.  Succeeding
    twice is an error; registering on an already-succeeded event resumes
    immediately.

    >>> sim = Simulator()
    >>> done = Event(sim)
    >>> seen = []
    >>> done._add_waiter(seen.append)
    >>> _ = sim.call_at(2.0, done.succeed, "reply")
    >>> _ = sim.run()
    >>> seen
    ['reply']
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
