"""Metrics registry: counters, gauges, histograms — deterministic and cheap.

The paper measured everything offline by grepping directory-dump files
(Section 6.4); this module gives the reproduction the first-class
counter/gauge/histogram surface a production membership service exposes
(cf. the "core service" framing of Scalable Group Management,
arXiv:1003.5794).  Three design rules keep it compatible with the
simulator's contracts:

* **Determinism.**  Instruments never read wall-clock time or draw
  randomness; histograms use *fixed* bucket boundaries chosen at
  creation, so a seeded run produces byte-identical exports.
* **Hot-path cost.**  An enabled counter increment is one attribute add.
  A disabled deployment holds :data:`NULL_COUNTER`-style no-op
  instruments, so instrumented call sites cost a no-op method call and
  nothing else.
* **Export order.**  Families and children export in creation order
  (insertion-ordered dicts), never sorted-by-timestamp, so exports are
  reproducible too.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Family",
    "MetricsRegistry",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
]

#: Seconds-scale latency buckets (detection/convergence/delay observations).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0
)

#: Count-scale buckets (fan-outs, snapshot sizes, op batch sizes).
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000
)

LabelValues = Tuple[Tuple[str, str], ...]


class Counter:
    """Monotonically increasing count.  ``inc``/``add`` only."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self) -> None:
        self.value += 1

    def add(self, n: int) -> None:
        self.value += n

    def get(self) -> int:
        return self.value


class Gauge:
    """A value that can go up and down (queue depths, clock samples)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = v

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n

    def get(self) -> float:
        return self.value


class Histogram:
    """Cumulative histogram over *fixed* bucket boundaries.

    Boundaries are upper-inclusive edges, ascending; an implicit +Inf
    bucket catches the rest.  Fixing the boundaries at creation (no
    dynamic rebucketing) keeps seeded runs' exports byte-identical.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum")

    def __init__(self, bounds: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
        edges = tuple(float(b) for b in bounds)
        if list(edges) != sorted(set(edges)):
            raise ValueError(f"histogram bounds must be strictly ascending: {bounds!r}")
        self.bounds = edges
        self.bucket_counts = [0] * (len(edges) + 1)  # +Inf tail bucket
        self.count = 0
        self.sum = 0.0

    def observe(self, v: float) -> None:
        self.count += 1
        self.sum += v
        i = 0
        bounds = self.bounds
        n = len(bounds)
        # Linear scan: bucket lists are short (~a dozen edges) and most
        # observations land early; a bisect would allocate nothing less.
        while i < n and v > bounds[i]:
            i += 1
        self.bucket_counts[i] += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, +Inf last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, c in zip(self.bounds, self.bucket_counts):
            running += c
            out.append((bound, running))
        out.append((float("inf"), running + self.bucket_counts[-1]))
        return out


class NullCounter:
    """No-op counter: the disabled-observability stand-in."""

    __slots__ = ()

    def inc(self) -> None:
        pass

    def add(self, n: int) -> None:
        pass

    def get(self) -> int:
        return 0


class NullGauge:
    __slots__ = ()

    def set(self, v: float) -> None:
        pass

    def inc(self, n: float = 1.0) -> None:
        pass

    def dec(self, n: float = 1.0) -> None:
        pass

    def get(self) -> float:
        return 0.0


class NullHistogram:
    __slots__ = ()

    def observe(self, v: float) -> None:
        pass


#: Module-level no-op singletons; every disabled instrument is one of these.
NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class Family:
    """One named metric and its per-labelset children.

    ``labels()`` with no arguments returns the unlabeled child; children
    are created on first use and kept in insertion order for stable
    exports.  Label *names* are fixed per family (Prometheus convention).
    """

    __slots__ = ("name", "kind", "help", "label_names", "bounds", "_children")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        label_names: Sequence[str] = (),
        bounds: Optional[Sequence[float]] = None,
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self.bounds = tuple(bounds) if bounds is not None else None
        self._children: Dict[LabelValues, object] = {}

    def labels(self, **labels: str):
        """The child instrument for this labelset (created on first use)."""
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, got {tuple(labels)}"
            )
        key: LabelValues = tuple((k, str(labels[k])) for k in self.label_names)
        child = self._children.get(key)
        if child is None:
            if self.kind == "histogram":
                child = Histogram(self.bounds if self.bounds is not None else DEFAULT_TIME_BUCKETS)
            else:
                child = _KINDS[self.kind]()
            self._children[key] = child
        return child

    def children(self) -> Iterator[Tuple[LabelValues, object]]:
        return iter(self._children.items())


class MetricsRegistry:
    """Owns every metric family of one deployment.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same family, so independent components
    can share an instrument by name.  Re-registering a name with a
    different kind is a bug and raises.
    """

    def __init__(self) -> None:
        self._families: Dict[str, Family] = {}

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: Sequence[str],
        bounds: Optional[Sequence[float]] = None,
    ) -> Family:
        fam = self._families.get(name)
        if fam is not None:
            if fam.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {fam.kind}, not {kind}"
                )
            return fam
        fam = Family(name, kind, help=help, label_names=label_names, bounds=bounds)
        self._families[name] = fam
        return fam

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()):
        fam = self._family(name, "counter", help, labels)
        return fam if labels else fam.labels()

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()):
        fam = self._family(name, "gauge", help, labels)
        return fam if labels else fam.labels()

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        bounds: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ):
        fam = self._family(name, "histogram", help, labels, bounds=bounds)
        return fam if labels else fam.labels()

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold another registry's samples into this one.

        The sharded runner gives every shard its own registry (lock-free
        hot paths) and merges them at flush time.  Counters and histogram
        samples add; gauges add too (queue depths and event counts are
        per-shard partial sums — callers needing a different fold should
        sample per shard instead).  Merging is only defined for families
        with matching kind/labels/bounds, which holds when both sides
        were wired by :mod:`repro.obs.wiring`.
        """
        for fam in other.families():
            mine = self._family(fam.name, fam.kind, fam.help, fam.label_names, fam.bounds)
            for key, child in fam.children():
                target = mine.labels(**dict(key))
                if fam.kind == "counter":
                    assert isinstance(child, Counter) and isinstance(target, Counter)
                    target.add(child.get())
                elif fam.kind == "gauge":
                    assert isinstance(child, Gauge) and isinstance(target, Gauge)
                    target.inc(child.get())
                else:
                    assert isinstance(child, Histogram) and isinstance(target, Histogram)
                    if target.bounds != child.bounds:
                        raise ValueError(
                            f"cannot merge histogram {fam.name!r}: bounds differ"
                        )
                    target.count += child.count
                    target.sum += child.sum
                    for i, c in enumerate(child.bucket_counts):
                        target.bucket_counts[i] += c

    def families(self) -> Iterator[Family]:
        return iter(self._families.values())

    def get(self, name: str) -> Optional[Family]:
        return self._families.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __len__(self) -> int:
        return len(self._families)
