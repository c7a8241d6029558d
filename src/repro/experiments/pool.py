"""Parallel experiment execution: batch run dispatch over a process pool.

Trace-driven predictor evaluation is embarrassingly parallel: every
(workload, config, timing, scale) run is independent, and the result cache
of :mod:`repro.experiments.common` is safe under concurrent writers
(atomic temp-file-then-rename publication, one file per fingerprint,
tolerant reads).  This module exploits that:

* :class:`~repro.experiments.common.RunSpec` names one run (re-exported
  here);
* :func:`run_many` takes a batch of specs, deduplicates them by cache
  fingerprint, serves what it can from the cache, and simulates only the
  misses — dispatched through a pluggable execution
  :class:`~repro.experiments.backends.Backend` (``serial``, ``process``);
* :func:`parallel_map` is the generic sibling for non-``RunResult`` work
  (e.g. trace statistics for Table 4);
* a session :class:`ExecutionLog` records per-run wall time, throughput
  and worker attribution so ``run_all`` can summarize how the batch
  actually executed.

Specs carrying a checkpoint-parallel plan (``RunSpec.parallel``) are
executed in the orchestrating process, not shipped to a pool worker: such
a run performs its *own* fan-out (:func:`repro.sampling.run_parallel`),
and a daemonized pool worker cannot spawn the children it needs.

Worker count resolution (everywhere a ``jobs`` argument appears):
an explicit positive integer wins; ``None`` defers to the ``REPRO_JOBS``
environment variable; absent both, runs are serial.  ``0`` or a negative
value means "one worker per CPU".

Workers re-check the cache before simulating, so two processes racing on
the same fingerprint at worst duplicate one simulation — they never
corrupt the cache or return different scientific payloads.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence, TypeVar

from repro.experiments.backends import Backend, resolve_backend
from repro.experiments.common import (
    RunResult,
    RunSpec,
    load_cached_run,
    run_plan,
)
from repro.telemetry.metrics import REGISTRY
from repro.telemetry.monitor import StatusBoard, shutdown_sweep

#: Environment variable supplying the default worker count for batch runs.
JOBS_ENV = "REPRO_JOBS"

T = TypeVar("T")
R = TypeVar("R")


def effective_jobs(jobs: int | None = None) -> int:
    """Resolve a ``jobs`` argument to a concrete worker count (>= 1).

    Precedence: explicit argument, then ``REPRO_JOBS``, then 1 (serial).
    Zero or negative (from either source) means one worker per CPU.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"${JOBS_ENV} must be an integer worker count, got {raw!r}"
            ) from None
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


@dataclass
class ExecutionLog:
    """Accumulated observability for every batch executed this session."""

    cache_hits: int = 0
    simulated: int = 0
    #: Runs that skipped the cache *read* because they were audited — they
    #: count under ``simulated`` too, but the cache-hit rate must not treat
    #: them as misses (they never asked).
    audit_bypassed: int = 0
    simulated_instructions: int = 0
    simulated_seconds: float = 0.0
    batch_seconds: float = 0.0
    batches: int = 0
    max_workers: int = 1
    #: worker name -> (runs, simulated seconds).
    workers: dict[str, tuple[int, float]] = field(default_factory=dict)
    #: Host-side report phase -> wall seconds (``record_phase``).
    phase_seconds: dict[str, float] = field(default_factory=dict)

    def record_batch(self, results: Sequence[RunResult], hits: int,
                     elapsed: float, jobs: int, bypassed: int = 0) -> None:
        """Fold one :func:`run_many` batch into the session totals."""
        self.batches += 1
        self.cache_hits += hits
        self.audit_bypassed += bypassed
        self.batch_seconds += elapsed
        self.max_workers = max(self.max_workers, jobs)
        for run in results:
            self.simulated += 1
            self.simulated_instructions += run.instructions
            self.simulated_seconds += run.wall_seconds
            runs, seconds = self.workers.get(run.worker or "unknown", (0, 0.0))
            self.workers[run.worker or "unknown"] = (
                runs + 1, seconds + run.wall_seconds
            )

    @property
    def requested(self) -> int:
        """Unique runs requested across all batches (hits + simulations)."""
        return self.cache_hits + self.simulated

    @property
    def cache_eligible(self) -> int:
        """Runs that actually consulted the cache (audited ones did not)."""
        return self.requested - self.audit_bypassed

    def record_phase(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` of host wall time under phase ``name``."""
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds

    @property
    def throughput(self) -> float:
        """Aggregate simulated instructions per simulated second."""
        if self.simulated_seconds <= 0:
            return 0.0
        return self.simulated_instructions / self.simulated_seconds

    def reset(self) -> None:
        """Zero the log (start of a fresh report run)."""
        self.__dict__.update(ExecutionLog().__dict__)


#: Session-wide log; ``run_all`` resets it at the start of a report and
#: renders it at the end (:func:`repro.metrics.report.render_run_summary`).
session_log = ExecutionLog()


@dataclass
class _TimedRun:
    """One dispatched run plus its queue-wait and execute timings.

    ``queue_seconds`` is measured against the orchestrator's enqueue
    timestamp with ``time.time()`` on both sides — the only clock that is
    meaningful across a process boundary (``perf_counter`` epochs are
    per-process).
    """

    run: RunResult
    queue_seconds: float
    execute_seconds: float


def _timed_simulate(item: tuple[float, RunSpec]) -> _TimedRun:
    """Pool worker body: one cached run of a plan, with its timings.

    Must stay a module-level function so it pickles under every
    ``multiprocessing`` start method.  :func:`run_plan` re-checks the cache
    first (audited runs excepted), so a run another worker already
    published is not repeated.
    """
    enqueued, spec = item
    begun = time.time()
    started = time.perf_counter()
    run = run_plan(spec)
    return _TimedRun(run, max(0.0, begun - enqueued),
                     time.perf_counter() - started)


def _dispatched(spec: RunSpec) -> tuple[float, RunSpec]:
    """A pool item: the enqueue time and the plan with its scale and audit
    switch resolved here, so workers never consult their own environment."""
    return time.time(), replace(spec, scale=spec.resolved_scale(),
                                audit=spec.resolved_audit())


def _record_dispatch(backend_name: str, timed: Sequence[_TimedRun],
                     jobs: int, elapsed: float) -> None:
    """Fold one batch's dispatch timings into the session registry.

    Feeds the ``run_many`` session summary: queue wait vs execute time per
    backend, and the busy/capacity second counters utilization is computed
    from (busy = worker execute seconds, capacity = workers x batch wall).
    """
    if not timed:
        return
    queue = REGISTRY.histogram(
        "repro_dispatch_queue_seconds",
        "seconds a run waited between enqueue and worker pickup",
        ("backend",),
    )
    execute = REGISTRY.histogram(
        "repro_dispatch_execute_seconds",
        "seconds a worker spent executing one run",
        ("backend",),
    )
    busy = REGISTRY.counter(
        "repro_pool_busy_seconds_total",
        "worker seconds spent executing runs",
        ("backend",),
    )
    for entry in timed:
        queue.observe(entry.queue_seconds, backend=backend_name)
        execute.observe(entry.execute_seconds, backend=backend_name)
        busy.inc(entry.execute_seconds, backend=backend_name)
    REGISTRY.counter(
        "repro_pool_capacity_seconds_total",
        "worker-seconds of pool capacity over batch wall time",
        ("backend",),
    ).inc(jobs * elapsed, backend=backend_name)


def run_many(
    specs: Iterable[RunSpec],
    jobs: int | None = None,
    log: ExecutionLog | None = None,
    backend: "str | Backend | None" = None,
) -> list[RunResult]:
    """Execute a batch of runs, deduplicated and cache-first.

    Returns one :class:`RunResult` per input spec, in input order
    (duplicate specs share the single result object).  Cache hits are
    served without simulation; misses dispatch through ``backend``
    (default: ``$REPRO_BACKEND``/``process``) with at most ``jobs`` in
    flight — except specs carrying a :class:`ParallelPlan`, which run in
    this process because their own interval fan-out needs to spawn
    workers, and a daemonized pool child cannot.  Every batch is folded
    into ``log`` (default: the module :data:`session_log`).
    """
    ordered = list(specs)
    jobs = effective_jobs(jobs)
    log = session_log if log is None else log
    chosen = resolve_backend(backend)
    started = time.perf_counter()

    # Deduplicate by fingerprint, preserving first-seen order.
    keys = [spec.fingerprint() for spec in ordered]
    unique: dict[str, RunSpec] = {}
    for key, spec in zip(keys, ordered):
        unique.setdefault(key, spec)

    # Cache-first: only misses are dispatched.  Audited specs never read
    # the cache (a hit would silently skip every invariant check).
    board = StatusBoard.from_env()
    results: dict[str, RunResult] = {}
    for key, spec in unique.items():
        if spec.resolved_audit():
            continue
        cached = load_cached_run(key)
        if cached is not None:
            results[key] = cached
            REGISTRY.counter(
                "repro_runs_total", "workload runs by result", ("result",),
            ).inc(result="cached")
            if board is not None:
                board.beat(spec.label, "cached",
                           instructions=cached.instructions,
                           seconds=cached.wall_seconds)
    misses = [(key, spec) for key, spec in unique.items() if key not in results]
    hits = len(results)
    bypassed = sum(1 for spec in unique.values() if spec.resolved_audit())

    pooled = [(key, spec) for key, spec in misses if spec.parallel is None]
    local = [(key, spec) for key, spec in misses if spec.parallel is not None]
    if board is not None:
        for _, spec in misses:
            board.beat(spec.label, "queued")

    items = [_dispatched(spec) for _, spec in pooled]
    in_process = len(items) <= 1 or jobs == 1
    miss_labels = [spec.label for _, spec in misses]
    with shutdown_sweep(board, miss_labels):
        if in_process:
            timed = [_timed_simulate(item) for item in items]
        else:
            timed = chosen.map(_timed_simulate, items, min(jobs, len(items)))
        for (key, _), entry in zip(pooled, timed):
            results[key] = entry.run
        locally = []
        for key, spec in local:
            entry = _timed_simulate(_dispatched(spec))
            locally.append(entry)
            results[key] = entry.run

    simulated = [entry.run for entry in timed + locally]
    elapsed = time.perf_counter() - started
    _record_dispatch("local" if in_process else chosen.name,
                     timed, jobs, elapsed)
    # Parallel-plan specs execute in this process (their own fan-out needs
    # to spawn workers), whatever backend the batch chose.
    _record_dispatch("local", locally, 1, elapsed)
    log.record_batch(simulated, hits, elapsed, jobs, bypassed=bypassed)
    return [results[key] for key in keys]


def parallel_map(
    function: Callable[[T], R],
    items: Sequence[T],
    jobs: int | None = None,
    backend: "str | Backend | None" = None,
) -> list[R]:
    """Order-preserving map through an execution backend.

    ``function`` must be a picklable module-level callable and ``items``
    picklable values.  Used for embarrassingly parallel non-simulation
    work, e.g. per-workload trace statistics in Table 4.  ``backend``
    resolves like everywhere else (``$REPRO_BACKEND``/``process``); the
    process backend degrades to in-process execution when ``jobs`` is 1
    or a single item is passed.
    """
    items = list(items)
    jobs = min(effective_jobs(jobs), max(1, len(items)))
    return resolve_backend(backend).map(function, items, jobs)
