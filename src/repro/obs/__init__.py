"""Observability layer: metrics registry, trace sinks, exporters.

The paper's evaluation reconstructed every metric offline from
directory-dump files (Section 6.4).  This package adds what a
production deployment of the protocol would actually expose:

* :mod:`repro.obs.registry` — counters, gauges and fixed-bucket
  histograms with no-op twins, so instrumented hot paths cost a no-op
  call when observability is off;
* :mod:`repro.obs.sinks` — streaming trace sinks (JSONL files, bounded
  ring buffers) that replace the unbounded in-memory record list for
  large sweeps;
* :mod:`repro.obs.exporters` — deterministic Prometheus-text and JSON
  exports;
* :mod:`repro.obs.wiring` — the flat :class:`Instruments` bundle shared
  by the fabrics and protocol nodes, plus
  :func:`enable_observability`.

See docs/OBSERVABILITY.md for the design, the count-based overhead gate
(``tests/obs/test_wiring.py``) and the determinism contract.
"""

from repro.obs.exporters import to_json, to_json_str, to_prometheus
from repro.obs.registry import (
    Counter,
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.sinks import JsonlTraceSink, RingBufferSink, read_jsonl_trace
from repro.obs.wiring import (
    Instruments,
    NOOP,
    ObsHandle,
    disable_observability,
    enable_observability,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "JsonlTraceSink",
    "RingBufferSink",
    "read_jsonl_trace",
    "Instruments",
    "NOOP",
    "ObsHandle",
    "enable_observability",
    "disable_observability",
    "to_json",
    "to_json_str",
    "to_prometheus",
]
