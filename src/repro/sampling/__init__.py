"""Sampled simulation and checkpointing (SMARTS-style interval sampling).

Public surface:

* :class:`~repro.sampling.plan.SamplingPlan` — which trace windows get
  detailed simulation (systematic or stratified selection);
* :func:`~repro.sampling.runner.run_sampled` — execute a plan: functional
  warming between intervals, detailed warmup + measurement inside them,
  counter extrapolation with confidence intervals;
* :class:`~repro.sampling.checkpoint.CheckpointStore` — on-disk warmed
  state, keyed by (model fingerprint, trace, plan, interval);
* :func:`~repro.sampling.estimate.error_report` — sampled-vs-full error
  accounting that refuses estimates whose CI exceeds the bound;
* :func:`~repro.sampling.parallel.run_parallel` — checkpoint-parallel
  interval simulation: cut one trace into K slices, fan them out over an
  execution backend, stitch the deltas (bit-identical in exact mode).
"""

from repro.sampling.checkpoint import CheckpointStore, load_state, save_state
from repro.sampling.estimate import (
    DEFAULT_CI_BOUND,
    ConfidenceBoundExceeded,
    MetricEstimate,
    check_bounds,
    confidence_interval,
    error_report,
    ratio_estimate,
)
from repro.sampling.plan import Interval, SamplingPlan, plan_slices
from repro.sampling.runner import IntervalMeasurement, SampledResult, run_sampled

# Imported last: parallel builds on the runner/checkpoint surface above.
from repro.sampling.parallel import (  # noqa: E402
    ParallelPlan,
    ParallelResult,
    SliceOutcome,
    TraceSource,
    run_parallel,
)

__all__ = [
    "CheckpointStore",
    "ConfidenceBoundExceeded",
    "DEFAULT_CI_BOUND",
    "Interval",
    "IntervalMeasurement",
    "MetricEstimate",
    "ParallelPlan",
    "ParallelResult",
    "SampledResult",
    "SamplingPlan",
    "SliceOutcome",
    "TraceSource",
    "check_bounds",
    "confidence_interval",
    "error_report",
    "load_state",
    "plan_slices",
    "ratio_estimate",
    "run_parallel",
    "run_sampled",
    "save_state",
]
