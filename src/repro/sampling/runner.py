"""The sampled-simulation interval runner.

Executes a :class:`~repro.sampling.plan.SamplingPlan` over one trace:
fast-forwards between measured intervals in functional-warming mode
(:meth:`~repro.engine.simulator.Simulator.warm_step` — predictors and
caches learn, no cycles), runs each interval's detailed warmup prefix
unmeasured, snapshots the counters around the measured window, and
extrapolates whole-trace estimates from the per-interval deltas with
confidence intervals (:mod:`repro.sampling.estimate`).  The measured
window feed and the estimator are shared with
:func:`~repro.sampling.parallel.run_parallel`, whose slices report the
same :class:`IntervalMeasurement` records.

With a :class:`~repro.sampling.checkpoint.CheckpointStore` attached, the
warmed state reached at each interval's warm-start is serialized once; a
rerun (same model fingerprint, trace identity and plan) loads the snapshot
and skips the fast-forward entirely.

The trace argument is a :class:`~repro.trace.reader.TraceFile` (the path
every run plan takes — fixed record size makes a checkpoint fast-forward a
seek instead of a scan) or a materialized ``list[TraceRecord]``.
Consumption is single-pass via :class:`_TraceCursor`: one forward sweep
over one stream, never a re-read from record 0.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.audit import Auditor
    from repro.telemetry import Telemetry

from repro.core.config import PredictorConfig, ZEC12_CONFIG_2
from repro.core.events import OutcomeKind
from repro.engine.batched import validate_engine_mode
from repro.engine.params import DEFAULT_TIMING, TimingParams
from repro.engine.simulator import SimulationResult, Simulator
from repro.metrics.counters import SimCounters
from repro.sampling.checkpoint import CheckpointStore
from repro.sampling.estimate import (
    MetricEstimate,
    confidence_interval,
    ratio_estimate,
)
from repro.sampling.plan import Interval, SamplingPlan
from repro.trace.record import TraceRecord


class _TraceCursor:
    """One forward pass over a trace, whatever its access pattern.

    Hands out monotonically advancing windows carved from a *single*
    underlying stream, in one of two access modes:

    * ``iter_from`` (a :class:`~repro.trace.reader.TraceFile`): one
      open-ended generator over the backing stream is reused across
      contiguous windows; a positional jump (checkpoint fast-forward)
      re-seeks instead of scanning.  ``stream_passes`` counts generator
      (re)creations — contiguous consumption is exactly one pass.
    * sequences (a materialized ``list``): windows are slices; skips are
      free.

    Anything else raises ``TypeError``.  Rewinding is a bug by
    construction and raises ``ValueError``.
    """

    def __init__(self, trace) -> None:
        self._trace = trace
        self._iter_from = getattr(trace, "iter_from", None)
        if self._iter_from is None and not isinstance(trace, Sequence):
            raise TypeError(
                f"a trace is a sequence of records or a TraceFile, not "
                f"{type(trace).__name__}")
        self._stream: Iterator[TraceRecord] | None = None
        self._position = 0
        #: Fresh stream iterations/seeks performed (regression hook).
        self.stream_passes = 0

    @property
    def position(self) -> int:
        return self._position

    def skip_to(self, position: int) -> None:
        """Advance past records ``[position_now, position)`` unread.

        Free in both modes.  Going backwards raises — the cursor is
        single-pass.
        """
        if position < self._position:
            raise ValueError(
                f"cursor cannot rewind from {self._position} to {position}"
            )
        if position != self._position:
            # Drop the current generator; the next window re-seeks.
            self._stream = None
            self._position = position

    def window(self, start: int, stop: int) -> Iterator[TraceRecord]:
        """Yield records ``[start, stop)``; ``start`` >= current position."""
        if stop <= start:
            return
        if start != self._position:
            self.skip_to(start)
        if self._iter_from is None:
            records = self._trace[start:stop]
        else:
            if self._stream is None:
                self._stream = self._iter_from(start)
                self.stream_passes += 1
            records = islice(self._stream, stop - start)
        for record in records:
            self._position += 1
            yield record


#: Records per detailed block :func:`_measured_feed` hands the engine; a
#: caller's ``beat`` runs after each full block.
_BEAT_RECORDS = 8192


def _diff_counters(before: dict, after: dict) -> dict:
    """Per-field delta of two :meth:`SimCounters.state_dict` snapshots."""
    delta: dict = {}
    for key, value in after.items():
        previous = before[key]
        if isinstance(value, dict):
            delta[key] = {
                name: value.get(name, 0) - previous.get(name, 0)
                for name in set(value) | set(previous)
            }
        else:
            delta[key] = value - previous
    return delta


def _measured_feed(sim: Simulator, records: Iterable[TraceRecord],
                   beat: Callable[[int], None] | None = None) -> dict:
    """Feed ``records`` in detail and return the counter delta they caused.

    The one measured window of the sampling package: sampled intervals
    and exact-parallel slices both measure through it.  Records go to
    :meth:`~repro.engine.simulator.Simulator.feed` in blocks of
    :data:`_BEAT_RECORDS` (feeds split anywhere reach the same state), and
    ``beat(records_fed)`` runs after each full block.  The delta is
    :meth:`SimCounters.state_dict`-shaped, with ``cycles`` taken from the
    simulator clock, since counters only latch cycles at finish.
    """
    records = iter(records)
    before = sim.counters.state_dict()
    cycle_before = sim._cycle
    fed = 0
    while True:
        block = list(islice(records, _BEAT_RECORDS))
        if not block:
            break
        sim.feed(block)
        fed += len(block)
        if beat is not None and len(block) == _BEAT_RECORDS:
            beat(fed)
    delta = _diff_counters(before, sim.counters.state_dict())
    delta["cycles"] = sim._cycle - cycle_before
    return delta


@dataclass(frozen=True)
class IntervalMeasurement:
    """Counter deltas of one measured interval (or exact-parallel slice)."""

    index: int
    start: int
    stop: int
    #: Whether the fast-forward to this interval was skipped: a loaded
    #: checkpoint, or the producer's state for an exact-parallel slice.
    from_checkpoint: bool
    #: The :func:`_measured_feed` delta of the window.
    delta: dict

    @property
    def instructions(self) -> int:
        return self.delta["instructions"]

    @property
    def cycles(self) -> float:
        return self.delta["cycles"]

    @property
    def branches(self) -> int:
        return self.delta["branches"]

    @property
    def bad_outcomes(self) -> int:
        outcomes = self.delta["outcomes"]
        return sum(outcomes.get(kind.value, 0)
                   for kind in OutcomeKind if kind.is_bad)

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def bad_outcome_fraction(self) -> float:
        return self.bad_outcomes / self.branches if self.branches else 0.0


@dataclass
class SampledResult:
    """Everything a sampled run produces: estimates, CIs, provenance."""

    config_name: str
    plan: SamplingPlan
    total_records: int
    measurements: list[IntervalMeasurement]
    #: Extrapolated whole-trace result (counters scaled from the measured
    #: intervals; structure stats are the partial run's actual state).
    result: SimulationResult
    cpi: float
    cpi_ci: float
    bad_outcome_fraction: float
    bad_outcome_ci: float
    measured_instructions: int
    #: Records stepped through the full detailed model (warmup + measured).
    detailed_records: int
    checkpoints_loaded: int
    checkpoints_saved: int

    def metric_estimates(self) -> list[MetricEstimate]:
        """The bound-checked headline metrics (CPI relative, fraction abs)."""
        return [
            MetricEstimate(
                name="cpi",
                value=self.cpi,
                ci_halfwidth=self.cpi_ci,
                ci_measure=(self.cpi_ci / self.cpi
                            if self.cpi else float("inf")),
            ),
            MetricEstimate(
                name="bad_outcome_fraction",
                value=self.bad_outcome_fraction,
                ci_halfwidth=self.bad_outcome_ci,
                ci_measure=self.bad_outcome_ci,
            ),
        ]


def _extrapolate(measurements: Sequence[IntervalMeasurement],
                 total_records: int, cpi: float) -> SimCounters:
    """Whole-trace counters scaled from the measured deltas.

    Instruction count is exact (one record per instruction); cycles follow
    the ratio-estimator CPI; event counts scale by the sampled fraction and
    round to integers.
    """
    measured = sum(m.instructions for m in measurements)
    scale = total_records / measured if measured else 0.0
    counters = SimCounters()
    counters.instructions = total_records
    counters.cycles = cpi * total_records

    def scaled(field: str) -> int:
        return round(sum(m.delta[field] for m in measurements) * scale)

    counters.branches = scaled("branches")
    counters.taken_branches = scaled("taken_branches")
    counters.icache_demand_misses = scaled("icache_demand_misses")
    counters.icache_hidden_misses = scaled("icache_hidden_misses")
    counters.icache_partially_hidden_misses = scaled(
        "icache_partially_hidden_misses")
    counters.context_switches = scaled("context_switches")
    for kind in OutcomeKind:
        counters.outcomes[kind] = round(
            sum(m.delta["outcomes"].get(kind.value, 0)
                for m in measurements) * scale
        )
    causes: set[str] = set()
    for m in measurements:
        causes.update(m.delta["penalty_cycles"])
    for cause in sorted(causes):
        counters.penalty_cycles[cause] = (
            sum(m.delta["penalty_cycles"].get(cause, 0.0)
                for m in measurements) * scale
        )
    return counters


def _execute_intervals(
    sim: Simulator,
    cursor: _TraceCursor,
    intervals: Sequence[Interval],
    *,
    telemetry: "Telemetry | None" = None,
    store: CheckpointStore | None = None,
    trace_key: str | None = None,
    plan_key: tuple | None = None,
) -> tuple[list[IntervalMeasurement], int, int, int]:
    """Run a span of measured intervals over one cursor.

    The shared core of :func:`run_sampled` and the sampled-mode workers of
    :mod:`repro.sampling.parallel`: functionally warm up to each interval's
    warm-start (or load its checkpoint and seek), run the detailed
    warmup + measured window, and collect the per-interval counter deltas.

    Returns ``(measurements, detailed_records, checkpoints_loaded,
    checkpoints_saved)``.  Checkpointing engages only when ``store``,
    ``trace_key`` and ``plan_key`` are all provided; checkpoints are keyed
    by interval index under ``plan_key``.
    """
    model = sim.model_fingerprint()
    use_store = (store is not None and trace_key is not None
                 and plan_key is not None)
    detailed_records = 0
    checkpoints_loaded = 0
    checkpoints_saved = 0
    measurements: list[IntervalMeasurement] = []
    for interval in intervals:
        from_checkpoint = use_store and store.restore(
            sim, trace_key, plan_key, interval.index) is not None
        if from_checkpoint:
            checkpoints_loaded += 1
            cursor.skip_to(interval.warm_start)
        else:
            if telemetry is not None and cursor.position < interval.warm_start:
                telemetry.on_interval(sim._cycle, interval.index,
                                      cursor.position, "warming")
            sim.warm_run(cursor.window(cursor.position, interval.warm_start))
            if use_store:
                store.save(model, trace_key, plan_key, interval.index,
                           sim.state_dict())
                checkpoints_saved += 1
        if telemetry is not None:
            telemetry.on_interval(sim._cycle, interval.index,
                                  interval.warm_start, "warmup")
        warmup_len = interval.start - interval.warm_start
        window = list(cursor.window(interval.warm_start, interval.stop))
        sim.begin_interval(window[0].address)
        sim.feed(window[:warmup_len])
        if telemetry is not None:
            telemetry.on_interval(sim._cycle, interval.index,
                                  interval.start, "measure")
        delta = _measured_feed(sim, window[warmup_len:])
        detailed_records += len(window)
        measurements.append(
            IntervalMeasurement(
                index=interval.index,
                start=interval.start,
                stop=interval.stop,
                from_checkpoint=from_checkpoint,
                delta=delta,
            )
        )
        if telemetry is not None:
            telemetry.on_interval(sim._cycle, interval.index, interval.stop,
                                  "end")
    return measurements, detailed_records, checkpoints_loaded, checkpoints_saved


def run_sampled(
    trace,
    config: PredictorConfig = ZEC12_CONFIG_2,
    timing: TimingParams = DEFAULT_TIMING,
    plan: SamplingPlan | None = None,
    *,
    audit: "Auditor | None" = None,
    telemetry: "Telemetry | None" = None,
    checkpoint_store: CheckpointStore | None = None,
    trace_key: str | None = None,
    engine_mode: str = "object",
) -> SampledResult:
    """Simulate ``trace`` under ``plan`` and extrapolate whole-trace metrics.

    ``trace`` is a ``Sequence[TraceRecord]`` or an open
    :class:`~repro.trace.reader.TraceFile`.  Checkpointing needs both
    ``checkpoint_store`` and ``trace_key`` (a stable trace identity, e.g.
    the workload's cache key); with them, each interval's warmed state is
    saved on first computation and loaded — skipping the functional
    fast-forward — on reruns.  Records after the last measured interval are
    never touched: they cannot affect any measurement.

    ``engine_mode`` is checked (:mod:`repro.engine.batched`) but selects
    nothing: there is one engine.
    """
    validate_engine_mode(engine_mode)
    if plan is None:
        plan = SamplingPlan()
    total_records = len(trace)
    intervals = plan.intervals(total_records)
    if not intervals:
        raise ValueError(
            f"trace of {total_records} records is shorter than one "
            f"warmup+interval footprint ({plan.warmup}+{plan.interval}); "
            f"run it in full instead"
        )
    sim = Simulator(config=config, timing=timing, audit=audit,
                    telemetry=telemetry)
    measurements, detailed_records, checkpoints_loaded, checkpoints_saved = \
        _execute_intervals(
            sim, _TraceCursor(trace), intervals,
            telemetry=telemetry, store=checkpoint_store,
            trace_key=trace_key, plan_key=plan.cache_key(),
        )
    return _estimate(sim.finish(), plan, total_records, measurements,
                     detailed_records=detailed_records,
                     checkpoints_loaded=checkpoints_loaded,
                     checkpoints_saved=checkpoints_saved)


def _estimate(
    raw: SimulationResult,
    plan: SamplingPlan,
    total_records: int,
    measurements: list[IntervalMeasurement],
    *,
    detailed_records: int,
    checkpoints_loaded: int,
    checkpoints_saved: int,
) -> SampledResult:
    """The whole-trace estimate of a sampled run, serial or parallel.

    Ratio-of-sums CPI and bad-outcome fraction over ``measurements``,
    their confidence intervals, and counters extrapolated to
    ``total_records``; structure statistics come from ``raw``, the
    finished result of the simulator that ran the last interval.
    """
    cpi = ratio_estimate(
        [m.cycles for m in measurements],
        [m.instructions for m in measurements],
    )
    bad_fraction = ratio_estimate(
        [m.bad_outcomes for m in measurements],
        [m.branches for m in measurements],
    )
    _, cpi_ci = confidence_interval(
        [m.cpi for m in measurements if m.instructions]
    )
    _, bad_ci = confidence_interval(
        [m.bad_outcome_fraction for m in measurements if m.branches]
    )
    return SampledResult(
        config_name=raw.config_name,
        plan=plan,
        total_records=total_records,
        measurements=measurements,
        result=replace(raw, counters=_extrapolate(measurements,
                                                  total_records, cpi)),
        cpi=cpi,
        cpi_ci=cpi_ci,
        bad_outcome_fraction=bad_fraction,
        bad_outcome_ci=bad_ci,
        measured_instructions=sum(m.instructions for m in measurements),
        detailed_records=detailed_records,
        checkpoints_loaded=checkpoints_loaded,
        checkpoints_saved=checkpoints_saved,
    )
