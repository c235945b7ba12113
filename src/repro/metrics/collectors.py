"""Metric computation from traces and bandwidth meters.

The definitions follow the paper's Section 4 and the measurement method of
Section 6.4: "we find the earliest time when the failure is recorded in
these log files as the failure detection time, and the latest record time
of the failure as the view convergence time."  Our trace records are the
log files, with exact virtual timestamps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.net.bandwidth import BandwidthMeter
from repro.sim.trace import Trace

__all__ = [
    "detection_time",
    "convergence_time",
    "bandwidth_stats",
    "BandwidthStats",
    "accuracy_timeseries",
    "view_change_curve",
]


def _down_times(trace: Trace, target: str, since: float) -> List[float]:
    return [
        r.time
        for r in trace.records(kind="member_down", since=since)
        if r.data.get("target") == target
    ]


def detection_time(trace: Trace, target: str, kill_time: float) -> Optional[float]:
    """Earliest time any node recorded ``target``'s failure, minus kill time.

    Returns ``None`` if no node ever detected the failure.
    """
    times = _down_times(trace, target, kill_time)
    return min(times) - kill_time if times else None


def convergence_time(
    trace: Trace,
    target: str,
    kill_time: float,
    expected_observers: Optional[Iterable[str]] = None,
) -> Optional[float]:
    """Latest failure-record time across nodes, minus kill time.

    With ``expected_observers`` the result is ``None`` unless every listed
    node recorded the failure — an incomplete view must not masquerade as
    fast convergence.
    """
    records = [
        r
        for r in trace.records(kind="member_down", since=kill_time)
        if r.data.get("target") == target
    ]
    if not records:
        return None
    if expected_observers is not None:
        observed = {r.node for r in records}
        if not set(expected_observers) <= observed:
            return None
    return max(r.time for r in records) - kill_time


def view_change_curve(
    trace: Trace,
    target: str,
    observers: Iterable[str],
    since: float,
    kind: str = "member_down",
) -> List[Tuple[float, int]]:
    """Cumulative count of observers that recorded ``kind`` for ``target``.

    The Fig. 13/14 recovery curves: x = seconds after the event at
    ``since``, y = how many of ``observers`` have logged the view change
    by then.  Each observer counts once, at its earliest record.
    """
    watch = set(observers)
    firsts: Dict[str, float] = {}
    for rec in trace.records(kind=kind, since=since):
        if rec.data.get("target") != target or rec.node not in watch:
            continue
        if rec.node not in firsts or rec.time < firsts[rec.node]:
            firsts[rec.node] = rec.time
    curve: List[Tuple[float, int]] = []
    for i, t in enumerate(sorted(firsts.values()), start=1):
        curve.append((t - since, i))
    return curve


@dataclass(frozen=True)
class BandwidthStats:
    """Aggregate traffic over a measurement window (paper Fig. 11 method)."""

    duration: float
    total_rx_bytes: int
    total_rx_packets: int
    aggregate_rate: float  # bytes/second summed over all nodes
    per_node_rate: float  # mean bytes/second per node
    packet_rate: float  # packets/second summed over all nodes


def bandwidth_stats(meter: BandwidthMeter, duration: float, num_nodes: int) -> BandwidthStats:
    """Summarise a meter over an exact window (reset it at window start)."""
    total_bytes = meter.bytes(direction="rx")
    total_packets = meter.packets(direction="rx")
    rate = total_bytes / duration if duration > 0 else 0.0
    return BandwidthStats(
        duration=duration,
        total_rx_bytes=total_bytes,
        total_rx_packets=total_packets,
        aggregate_rate=rate,
        per_node_rate=rate / num_nodes if num_nodes else 0.0,
        packet_rate=total_packets / duration if duration > 0 else 0.0,
    )


def accuracy_timeseries(
    trace: Trace,
    all_hosts: List[str],
    alive_intervals: Dict[str, List[Tuple[float, float]]],
    horizon: float,
    step: float = 1.0,
) -> List[Tuple[float, float]]:
    """Mean membership accuracy over time across all live observers.

    ``alive_intervals`` maps each host to the [start, end) intervals during
    which it was actually up.  Accuracy for an observer at time *t* is the
    Jaccard similarity between its directory view (reconstructed from
    member_up/member_down trace events) and the ground-truth live set.
    """

    def alive(host: str, t: float) -> bool:
        return any(lo <= t < hi for lo, hi in alive_intervals.get(host, []))

    # Reconstruct view deltas per observer.  "view_reset" marks a daemon
    # (re)start wiping the directory — without it a restarted node would
    # appear to still hold its pre-crash view.
    events: Dict[str, List[Tuple[float, str, str]]] = {h: [] for h in all_hosts}
    for rec in trace.records(kind="member_up"):
        if rec.node in events:
            events[rec.node].append((rec.time, "up", rec.data["target"]))
    for rec in trace.records(kind="member_down"):
        if rec.node in events:
            events[rec.node].append((rec.time, "down", rec.data["target"]))
    for rec in trace.records(kind="view_reset"):
        if rec.node in events:
            events[rec.node].append((rec.time, "reset", ""))
    for host in events:
        events[host].sort()

    out: List[Tuple[float, float]] = []
    cursors = {h: 0 for h in all_hosts}
    views: Dict[str, set] = {h: {h} for h in all_hosts}
    t = 0.0
    while t <= horizon:
        truth = {h for h in all_hosts if alive(h, t)}
        scores = []
        for host in all_hosts:
            if not alive(host, t):
                continue
            evs = events[host]
            i = cursors[host]
            while i < len(evs) and evs[i][0] <= t:
                _time, op, target = evs[i]
                if op == "up":
                    views[host].add(target)
                elif op == "reset":
                    views[host] = {host}
                else:
                    views[host].discard(target)
                i += 1
            cursors[host] = i
            view = views[host] | {host}
            union = view | truth
            scores.append(len(view & truth) / len(union) if union else 1.0)
        # fsum is correctly rounded, so the mean is the same on every CPython
        # (3.12's sum() of floats is compensated, earlier versions' is not).
        out.append((t, math.fsum(scores) / len(scores) if scores else 1.0))
        t += step
    return out
