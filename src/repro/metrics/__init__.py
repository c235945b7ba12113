"""Measurement harness for the evaluation experiments.

:mod:`repro.metrics.collectors` computes the paper's three protocol
metrics — failure-detection time, view-convergence time, and bandwidth
consumption — from traces and the bandwidth meter, plus a membership
**accuracy** time-series (fraction of directory entries matching ground
truth) used by the extended analyses.

:mod:`repro.metrics.experiment` runs scripted scenarios (warm-up, kill,
observe) for any of the three membership schemes, producing the data
behind Figs. 11, 12 and 13.

:mod:`repro.metrics.figures` is the whole evaluation as one table of
figures behind ``python -m repro.cli reproduce``; it is imported on its
own because it builds on :mod:`repro.chaos`, which imports this package.
"""

from repro.metrics.collectors import (
    accuracy_timeseries,
    bandwidth_stats,
    convergence_time,
    detection_time,
    view_change_curve,
)
from repro.metrics.experiment import (
    FailureExperiment,
    FailureResult,
    SCHEMES,
    make_scheme_cluster,
)

__all__ = [
    "accuracy_timeseries",
    "bandwidth_stats",
    "convergence_time",
    "detection_time",
    "FailureExperiment",
    "FailureResult",
    "SCHEMES",
    "make_scheme_cluster",
    "view_change_curve",
]
