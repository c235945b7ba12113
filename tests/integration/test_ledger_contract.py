"""Tier-1 guard for the benchmark ledger's contract with ``repro``.

``benchmarks/ledger/`` wraps public entry points by dotted name and
validates its own outputs; a rename in ``repro`` shows up there only as
``trace.missing > 0``, and a behavioural slip only as ``failed > 0`` —
both after the fact, in the benchmark run.  These tests check the same
two things inside the test suite, without editing or wrapping anything.
"""

import importlib
import os
import pkgutil
import sys

import pytest

LEDGER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks", "ledger",
)


@pytest.fixture(scope="module")
def ledger():
    """The ledger's own modules, imported the way ``run.py`` does."""
    sys.path.insert(0, LEDGER)
    try:
        names = ("clock", "spans", "workloads")
        return {name: importlib.import_module(name) for name in names}
    finally:
        sys.path.remove(LEDGER)


class RecordingTracer:
    """Stands in for ``spans.Tracer``: notes the tap names, installs nothing."""

    def __init__(self):
        self.tapped = []

    def span_id(self, _name, _layer):
        return 0

    def install(self, taps=None, result_taps=None):
        self.tapped += [*(taps or {}), *(result_taps or {})]


def test_every_span_target_and_tap_resolves(ledger):
    spans, workloads = ledger["spans"], ledger["workloads"]
    targets = {
        target.removesuffix("()")
        for layer_targets in spans.SPAN_TABLE.values()
        for target in layer_targets
    }
    assert set(spans.SPAN_TABLE) <= set(spans.LAYERS)
    for dotted in sorted(targets):
        # importlib + getattr, as the tracer does; raises when a name is gone
        assert callable(pkgutil.resolve_name(dotted)), dotted
    tracer = RecordingTracer()
    workloads.SimTrace(tracer)
    workloads.NetTrace(tracer)
    assert tracer.tapped
    # A tap fires from its target's wrapper, so it must name a span target.
    assert set(tracer.tapped) <= targets


def test_sim_churn_100_outputs_validate(ledger):
    run = ledger["workloads"].WORKLOADS["sim_churn_100"]
    result = run(31, 1, None, ledger["clock"].Stopwatch())
    assert result.attempted > 0
    assert result.failed == 0
