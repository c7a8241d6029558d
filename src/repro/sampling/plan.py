"""Interval-sampling plans: which trace windows get detailed simulation.

A :class:`SamplingPlan` partitions a trace into repeating periods.  Within
each period one *measured interval* of ``interval`` records is simulated in
full detail, preceded by ``warmup`` records of detailed-but-unmeasured
simulation (so the timing machinery — lookahead search position, in-flight
transfers, pending prefetches — reaches steady state before counters are
read).  Everything else is covered in functional-warming mode
(:meth:`repro.engine.simulator.Simulator.warm_step`): predictors and caches
keep learning, no cycles are accounted.

Two selection disciplines, the standard ones from the sampling literature
(SMARTS / stratified sampling):

* ``systematic`` — one interval at a fixed offset in every period;
* ``stratified`` — one interval at a seeded-pseudorandom offset within each
  period (stratum), which guards against periodic program behavior aliasing
  with the sampling period.

:func:`plan_slices` is the partition the checkpoint-parallel fan-out cuts
work with, in both of its modes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Interval:
    """One measured interval and its detailed-warmup prefix.

    Also the slice type of exact checkpoint-parallel runs, where
    ``warm_start == start``: a slice resumes from the serial state at its
    first record, so it has nothing to warm.
    """

    #: Measured-interval index (0-based).
    index: int
    #: First record of the detailed warmup (unmeasured).
    warm_start: int
    #: First measured record.
    start: int
    #: One past the last measured record.
    stop: int


def plan_slices(total: int, parts: int) -> list[Interval]:
    """Cut ``[0, total)`` into up to ``parts`` contiguous slices.

    Slices are near-equal (the remainder spreads one item at a time over
    the leading slices) and never empty, so a ``total`` below ``parts``
    yields fewer slices.  The one partition of the parallel fan-out: an
    exact run's worker slices are these intervals over the trace, and a
    sampled run's worker chunks are these slices of the plan's interval
    list.
    """
    if total <= 0:
        return []
    parts = max(1, min(parts, total))
    base, remainder = divmod(total, parts)
    slices = []
    start = 0
    for index in range(parts):
        stop = start + base + (1 if index < remainder else 0)
        slices.append(Interval(index=index, warm_start=start, start=start,
                               stop=stop))
        start = stop
    return slices


@dataclass(frozen=True)
class SamplingPlan:
    """How to sample one trace: mode, period geometry, warmup."""

    #: ``systematic`` or ``stratified``.  Stratified is the safer default:
    #: systematic sampling aliases badly when the period divides a
    #: workload's internal periodicity (the catalog's mixes switch phase
    #: every 20k records; a 40k systematic period measures one phase only).
    mode: str = "stratified"
    #: Measured records per interval.
    interval: int = 1_000
    #: Records per period (one measured interval per period).
    period: int = 20_000
    #: Detailed-but-unmeasured records before each measured interval.
    warmup: int = 1_000
    #: Offset-selection seed (stratified mode only).
    seed: int = 12345

    def __post_init__(self) -> None:
        if self.mode not in ("systematic", "stratified"):
            raise ValueError(f"unknown sampling mode {self.mode!r}")
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")
        if self.period < self.interval + self.warmup:
            raise ValueError(
                f"period {self.period} shorter than warmup {self.warmup} "
                f"+ interval {self.interval}"
            )

    @property
    def detailed_fraction(self) -> float:
        """Fraction of records simulated in detail (measured + warmup)."""
        return (self.interval + self.warmup) / self.period

    def intervals(self, total_records: int) -> list[Interval]:
        """The measured intervals for a trace of ``total_records``.

        Periods start at record 0; a period too short to fit its warmup +
        interval (the trace tail) is skipped.  Systematic mode places the
        warmup at the start of every period.  Stratified mode draws each
        period's offset from a seeded PRNG — deterministic for a given
        (seed, total_records), independent of everything else.
        """
        chosen: list[Interval] = []
        rng = random.Random(f"{self.seed}:{total_records}") \
            if self.mode == "stratified" else None
        footprint = self.warmup + self.interval
        index = 0
        for period_start in range(0, total_records, self.period):
            period_len = min(self.period, total_records - period_start)
            if period_len < footprint:
                continue
            if rng is None:
                offset = 0
            else:
                offset = rng.randrange(period_len - footprint + 1)
            warm_start = period_start + offset
            start = warm_start + self.warmup
            chosen.append(
                Interval(
                    index=index,
                    warm_start=warm_start,
                    start=start,
                    stop=start + self.interval,
                )
            )
            index += 1
        return chosen

    def cache_key(self) -> tuple:
        """Stable tuple identifying this plan (result/checkpoint cache keys)."""
        return (self.mode, self.interval, self.period, self.warmup, self.seed)

    def describe(self) -> str:
        """One-line human description."""
        return (
            f"{self.mode} sampling: {self.interval} measured "
            f"+ {self.warmup} warmup records per {self.period}-record period "
            f"({self.detailed_fraction:.1%} detailed)"
        )
