"""Chaos-loss regressions for the detector strategies.

Small instances of the :class:`~repro.chaos.lab.DetectorMatrixLab`
fabric — base packet loss everywhere plus a directionally degraded
inter-network link — pin the two promises a strategy makes: false
positives stay inside the per-detector budget, and a real crash is
detected within twice the advertised bound.  A second pass pins seeded
determinism: the active detectors draw only from their dedicated RNG
streams, so re-running a pair must reproduce it measurement-for-
measurement.  The last test is the CI detector-matrix gate: all nine
(detector x scheme) pairs on that fabric, count-based, so independent of
runner speed.
"""

from __future__ import annotations

import pytest

from repro.chaos.lab import DetectorMatrixLab

pytestmark = pytest.mark.slow


def small_lab(**overrides) -> DetectorMatrixLab:
    defaults = dict(
        networks=3,
        hosts_per_network=4,
        seed=7,
        warmup=12.0,
        bandwidth_window=6.0,
        observe=25.0,
        chaos_len=10.0,
    )
    defaults.update(overrides)
    return DetectorMatrixLab(**defaults)


@pytest.mark.parametrize("detector", ["counter", "swim", "phi-accrual"])
def test_false_positives_stay_inside_the_budget(detector):
    result = small_lab().run_pair(detector, "hierarchical")
    assert result.false_failures <= result.false_failure_bound
    assert result.ok, result.violations


@pytest.mark.parametrize("detector", ["counter", "swim", "phi-accrual"])
def test_detection_lands_inside_the_advertised_gate(detector):
    result = small_lab().run_pair(detector, "all-to-all")
    assert result.detection is not None
    assert result.detection <= result.detection_gate_s
    assert result.convergence is not None
    assert result.ok, result.violations


@pytest.mark.parametrize(
    "detector,scheme",
    [("swim", "hierarchical"), ("swim", "gossip"), ("phi-accrual", "all-to-all")],
)
def test_seeded_runs_are_deterministic(detector, scheme):
    first = small_lab().run_pair(detector, scheme)
    second = small_lab().run_pair(detector, scheme)
    assert first == second  # frozen dataclass: every measurement equal


@pytest.fixture(scope="module")
def quick_matrix():
    return {(r.detector, r.scheme): r for r in small_lab().run()}


@pytest.mark.parametrize("scheme", ["hierarchical", "all-to-all", "gossip"])
@pytest.mark.parametrize("detector", ["counter", "swim", "phi-accrual"])
def test_every_matrix_pair_is_green(quick_matrix, detector, scheme):
    r = quick_matrix[(detector, scheme)]
    assert not r.violations
    assert r.detection is not None, "crash never detected"
    assert r.detection <= r.detection_gate_s
    assert r.convergence is not None, "views never converged"
    assert r.false_failures <= r.false_failure_bound
    assert r.ok
