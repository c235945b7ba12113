"""Structured event tracing.

The experiment harness (:mod:`repro.metrics`) reconstructs failure-detection
and view-convergence times from trace records emitted by protocol nodes —
exactly how the paper did it ("each node dumps its membership directory to a
disk file when there is a change", Section 6.4), except our records carry
exact virtual timestamps so no clock-synchronisation start-message dance is
needed.

Storage and queries
-------------------
Records are kept both in one append-only list and in a **per-kind index**,
so ``records(kind=...)`` — the query every collector in
:mod:`repro.metrics.collectors` and the chaos invariant checker lean on —
no longer linear-scans the full trace.  Emit times are monotone during a
simulation run, which additionally lets time-window filters binary-search
the kind lists; manually emitted out-of-order times (tests) fall back to a
linear scan automatically.

For sweeps too large to retain in memory, construct the trace with
``retain=False`` and attach a streaming sink
(:mod:`repro.obs.sinks`): every record still reaches subscribers/sinks,
but nothing accumulates in the process (see docs/OBSERVABILITY.md).
Subscribers see every emit, whether or not the trace retains it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["Trace", "TraceRecord"]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One trace event.

    Attributes
    ----------
    time:
        Virtual time of the event.
    kind:
        Event category, e.g. ``"member_down"``, ``"member_up"``,
        ``"leader_elected"``, ``"packet_rx"``.
    node:
        Identifier of the node that observed/emitted the event.
    data:
        Free-form payload; keys depend on ``kind``.
    """

    time: float
    kind: str
    node: Optional[str]
    data: Dict[str, Any] = field(default_factory=dict)


def _time_of(rec: TraceRecord) -> float:
    return rec.time


class Trace:
    """Append-only in-memory trace with indexed filtered queries.

    ``retain=False`` switches it to pure streaming, which the large
    benchmark sweeps use to avoid accumulating millions of records.
    """

    def __init__(self, retain: bool = True) -> None:
        self.retain = retain
        self._records: List[TraceRecord] = []
        self._by_kind: Dict[str, List[TraceRecord]] = {}
        self._subscribers: List[Callable[[TraceRecord], None]] = []
        # True while emit times have been non-decreasing; gates the
        # binary-searched time windows in records().
        self._monotonic = True
        self._last_time = float("-inf")

    def emit(self, time: float, kind: str, node: Optional[str] = None, **data: Any) -> None:
        """Record an event: notify every subscriber, then store it if retained."""
        keep = self.retain
        subs = self._subscribers
        if not keep and not subs:
            return
        rec = TraceRecord(time, kind, node, data)
        for sub in subs:
            sub(rec)
        if keep:
            self._records.append(rec)
            bucket = self._by_kind.get(kind)
            if bucket is None:
                self._by_kind[kind] = [rec]
            else:
                bucket.append(rec)
            if time < self._last_time:
                self._monotonic = False
            else:
                self._last_time = time

    def wants(self) -> bool:
        """True when an emit would reach storage or a subscriber.

        The n²-scale protocol paths (one ``member_up`` per node pair
        during formation) call this before building the emit's kwargs, so
        a streaming trace without sinks costs one predicate instead of a
        discarded record.
        """
        return self.retain or bool(self._subscribers)

    def subscribe(self, fn: Callable[[TraceRecord], None]) -> None:
        """Invoke ``fn`` on every future record (live metric collectors)."""
        self._subscribers.append(fn)

    def attach_sink(self, sink: Callable[[TraceRecord], None]) -> Callable[[TraceRecord], None]:
        """Stream every future record into ``sink`` (returns it unchanged).

        Sinks are plain subscribers; see :mod:`repro.obs.sinks` for the
        JSONL and ring-buffer implementations.  Combine with
        ``retain=False`` for unbounded runs.
        """
        self.subscribe(sink)
        return sink

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def _kind_slice(
        self, kind: str, since: Optional[float], until: Optional[float]
    ) -> List[TraceRecord]:
        """Records of ``kind`` within the window, via the index."""
        bucket = self._by_kind.get(kind)
        if not bucket:
            return []
        lo, hi = 0, len(bucket)
        if self._monotonic:
            # Kind lists inherit the global emit order, so a monotone
            # trace can bisect the window instead of scanning.
            if since is not None:
                lo = bisect_left(bucket, since, key=_time_of)
            if until is not None:
                hi = bisect_right(bucket, until, key=_time_of)
            return bucket[lo:hi]
        return [
            r
            for r in bucket
            if (since is None or r.time >= since) and (until is None or r.time <= until)
        ]

    def records(
        self,
        kind: Optional[str] = None,
        node: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[TraceRecord]:
        """Return records matching all the given filters, in time order."""
        if kind is not None:
            selected = self._kind_slice(kind, since, until)
            if node is None:
                return list(selected)
            return [r for r in selected if r.node == node]
        out = []
        for rec in self._records:
            if node is not None and rec.node != node:
                continue
            if since is not None and rec.time < since:
                continue
            if until is not None and rec.time > until:
                continue
            out.append(rec)
        return out

    def count(self, kind: str) -> int:
        """Number of stored records of ``kind`` (O(1))."""
        bucket = self._by_kind.get(kind)
        return len(bucket) if bucket else 0

    def kind_names(self) -> List[str]:
        """Kinds with at least one stored record, in first-seen order."""
        return [k for k, bucket in self._by_kind.items() if bucket]

    def _match(
        self, kind: str, node: Optional[str], filters: Dict[str, Any], reverse: bool
    ) -> Optional[TraceRecord]:
        bucket = self._by_kind.get(kind)
        if not bucket:
            return None
        it = reversed(bucket) if reverse else iter(bucket)
        for rec in it:
            if node is not None and rec.node != node:
                continue
            if all(rec.data.get(k) == v for k, v in filters.items()):
                return rec
        return None

    def first(
        self, kind: str, node: Optional[str] = None, **filters: Any
    ) -> Optional[TraceRecord]:
        """Earliest record of ``kind`` whose data matches ``filters``.

        ``node=`` filters the *emitting* node, consistent with
        :meth:`records` — it is not a data filter.  (It used to be
        silently matched against ``data["node"]``, which no record
        carries, so ``first("member_down", node=...)`` always returned
        ``None``.)
        """
        return self._match(kind, node, filters, reverse=False)

    def last(
        self, kind: str, node: Optional[str] = None, **filters: Any
    ) -> Optional[TraceRecord]:
        """Latest record of ``kind`` whose data matches ``filters``.

        ``node=`` filters the emitting node, like :meth:`first`.
        """
        return self._match(kind, node, filters, reverse=True)

    def clear(self) -> None:
        self._records.clear()
        self._by_kind.clear()
        self._monotonic = True
        self._last_time = float("-inf")
