"""Acceptance tests for the canonical seeded chaos scenario.

The repo's chaos bar: asymmetric partition + 20% directional loss with
reordering/duplication + a mid-chaos crash/recover must run green under
the invariant checker, produce Fig. 13/14-style recovery curves, and be
byte-identical across same-seed runs.  The seed sweep at the bottom is
the CI chaos gate (count-based, so independent of runner speed).
"""

import pytest

from repro.chaos import ChaosScenario

#: Detection must land within MAX_LOSS periods (5 x 1 Hz) plus slack for
#: chaos-path delays.
DETECTION_BOUND_S = 10.0

SWEEP_SEEDS = [7, 11, 23, 42, 99]


@pytest.fixture(scope="module")
def result():
    return ChaosScenario(seed=7).run()


class TestAcceptance:
    def test_runs_green_under_invariants(self, result):
        assert result.ok, result.violations
        assert result.false_failures == 0

    def test_failure_detected_and_converged(self, result):
        assert result.detection is not None
        assert result.convergence is not None
        assert 0 < result.detection <= result.convergence
        assert result.detection < DETECTION_BOUND_S

    def test_recovery_curves_shape(self, result):
        # Fig. 13: the down-curve is cumulative and ends with every
        # observer having recorded the failure.
        counts = [c for _t, c in result.down_curve]
        assert counts == sorted(counts)
        assert counts[-1] == 3 * 8 - 1  # all survivors
        # Fig. 14: after recovery every observer re-adds the victim.
        assert result.up_curve
        assert result.up_curve[-1][1] == 3 * 8 - 1

    def test_chaos_actually_fired(self, result):
        assert result.fault_stats["drops"] > 0
        kinds = [k for _t, k, _d in result.failure_log]
        assert kinds.count("crash") == 1
        assert kinds.count("recover") == 1
        assert "partition" in kinds
        assert "partition_heal" in kinds

    def test_reproducible_per_seed(self, result):
        again = ChaosScenario(seed=7).run()
        assert again.trace_signature == result.trace_signature

    def test_different_seed_diverges(self, result):
        other = ChaosScenario(seed=8).run()
        assert other.trace_signature != result.trace_signature


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_seed_sweep_green_detected_and_chaos_fired(seed):
    """Every seed: invariants hold, the crash is detected in time, chaos was real."""
    res = ChaosScenario(seed=seed).run()
    assert res.ok, res.violations
    assert res.detection is not None, "crash never detected"
    assert res.detection <= DETECTION_BOUND_S
    assert res.fault_stats["drops"] > 0, "chaos never fired"
