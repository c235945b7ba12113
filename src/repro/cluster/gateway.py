"""Protocol gateways: workload generation and per-second statistics.

A gateway models the paper's web-server / XML-gateway tier: an open-loop
stream of client requests arriving at a fixed rate, each executed through a
:class:`~repro.cluster.consumer.ConsumerModule` (or an app-specific
callable), with completion latency recorded into per-second buckets — the
exact shape of Fig. 14's response-time and throughput panels.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim import Event, Simulator

__all__ = ["Gateway", "RequestStats"]

#: ``workload(seq) -> request kwargs`` passed to the executor.
WorkloadFn = Callable[[int], Dict[str, Any]]
#: ``executor(**kwargs) -> Event`` resolving to an object with .ok/.latency.
ExecutorFn = Callable[..., Event]


@dataclass
class RequestStats:
    """Per-second aggregates of completed/failed requests."""

    issued: int = 0
    completed: int = 0
    failed: int = 0
    _by_second: Dict[int, List[float]] = field(default_factory=lambda: defaultdict(list))
    _failures_by_second: Dict[int, int] = field(default_factory=lambda: defaultdict(int))

    def record(self, finish_time: float, ok: bool, latency: float) -> None:
        second = int(finish_time)
        if ok:
            self.completed += 1
            self._by_second[second].append(latency)
        else:
            self.failed += 1
            self._failures_by_second[second] += 1

    def throughput_series(self) -> List[Tuple[int, int]]:
        """(second, completed requests) pairs for every observed second."""
        seconds = set(self._by_second) | set(self._failures_by_second)
        return [(s, len(self._by_second.get(s, []))) for s in sorted(seconds)]

    def response_time_series(self) -> List[Tuple[int, float]]:
        """(second, mean latency of requests completing that second).

        Means use ``math.fsum``, correctly rounded on every CPython version."""
        return [
            (s, math.fsum(lats) / len(lats))
            for s, lats in sorted(self._by_second.items())
            if lats
        ]

    def failure_series(self) -> List[Tuple[int, int]]:
        return sorted(self._failures_by_second.items())

    def mean_response_time(self, since: float = 0.0, until: float = float("inf")) -> float:
        lats = [
            lat
            for s, ls in self._by_second.items()
            for lat in ls
            if since <= s < until
        ]
        return math.fsum(lats) / len(lats) if lats else 0.0

    def throughput(self, since: float, until: float) -> float:
        total = sum(
            len(ls) for s, ls in self._by_second.items() if since <= s < until
        )
        span = until - since
        return total / span if span > 0 else 0.0


class Gateway:
    """Open-loop request generator with fixed inter-arrival time.

    Parameters
    ----------
    sim:
        Simulation clock.
    executor:
        Called once per request with the workload's kwargs; must return an
        :class:`Event` whose value has ``ok`` and ``latency`` attributes
        (an :class:`~repro.cluster.consumer.InvocationResult` or the search
        app's query result).
    workload:
        Maps the request sequence number to executor kwargs.
    rate:
        Requests per second.
    jitter_rng:
        Optional stream; when given, inter-arrivals are exponential with
        the same mean (Poisson arrivals) instead of a fixed period.
    """

    def __init__(
        self,
        sim: Simulator,
        executor: ExecutorFn,
        workload: WorkloadFn,
        rate: float,
        jitter_rng: Optional[Any] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.executor = executor
        self.workload = workload
        self.rate = rate
        self.jitter_rng = jitter_rng
        self.stats = RequestStats()
        self._seq = 0
        self._running = False

    def start(self) -> None:
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False

    def _schedule_next(self) -> None:
        if self.jitter_rng is not None:
            gap = self.jitter_rng.expovariate(self.rate)
        else:
            gap = 1.0 / self.rate
        self.sim.call_after(gap, self._fire)

    def _fire(self) -> None:
        if not self._running:
            return
        seq = self._seq
        self._seq += 1
        self.stats.issued += 1
        kwargs = self.workload(seq)
        completion = self.executor(**kwargs)

        def on_done(result: Any) -> None:
            self.stats.record(self.sim.now, result.ok, result.latency)

        completion._add_waiter(on_done)
        self._schedule_next()
