"""Speed-compensated timing for a sandbox whose cores change speed."""

from __future__ import annotations

import time
from typing import Callable, Generic, NamedTuple, Tuple, TypeVar

__all__ = ["Stopwatch", "Timed", "probe_s"]

T = TypeVar("T")


class Timed(NamedTuple, Generic[T]):
    """One timed piece of work."""

    wall_s: float  # speed-compensated
    cpu_s: float  # speed-compensated
    raw_wall_s: float
    result: T


#: The speed probe: a fixed pure-Python loop, and what it takes on an
#: otherwise idle core of the sizing box.  The constant only fixes the
#: scale (compensated time equals measured time on a box at that speed).
PROBE_LOOPS = 400_000
PROBE_REFERENCE_S = 0.0146


def probe_s() -> float:
    """Seconds the fixed loop takes right now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i
    return time.perf_counter() - t0


class Stopwatch:
    """Times pieces of work in speed-compensated seconds.

    The sandbox this ledger is sized on changes speed by 1.5x over tens
    of seconds (CPU time inflates with wall time, so it is the core, not
    preemption).  Every piece is therefore bracketed by the speed probe
    and its times are scaled by reference / observed probe time: a piece
    that ran while the box was a third slower counts a third less.
    README.md has the measurements behind this.
    """

    def __init__(self) -> None:
        self._last_probe = probe_s()

    def time(self, work: Callable[[], T]) -> "Timed[T]":
        """Run ``work()``; its compensated wall and CPU seconds, raw wall, and result."""
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        result = work()
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        return Timed(*self.compensate(wall, cpu), wall, result)

    def compensate(self, wall: float, cpu: float) -> Tuple[float, float]:
        """Scale times measured since the previous probe by the box's speed."""
        probe = probe_s()
        speed = PROBE_REFERENCE_S / (0.5 * (self._last_probe + probe))
        self._last_probe = probe
        return wall * speed, cpu * speed
