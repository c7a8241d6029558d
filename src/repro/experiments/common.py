"""Shared experiment infrastructure: runs, caching, aggregation.

Every figure of the paper is a set of (workload, configuration) simulation
runs post-processed into CPI improvements.  Runs are expensive, and the
figures share many of them (every figure needs the configuration-1 baseline
on all 13 traces), so results are cached on disk as JSON, one file per
:meth:`RunSpec.fingerprint`.  Delete ``.results_cache/`` (or set
``REPRO_RESULTS_CACHE=off``) to force re-simulation.

The cache is safe under concurrent writers (see
:mod:`repro.experiments.pool`, which fans runs out over a process pool):
every write goes to a private temp file first and is published with an
atomic :func:`os.replace`, so readers never observe a half-written entry,
and the last writer of identical content wins harmlessly.  Reads are
tolerant — truncated, corrupt, or stale-schema entries are treated as cache
misses and re-simulated (then overwritten).

Each cached :class:`RunResult` also records run observability: the wall
time of the simulation, its instructions/second throughput, and which
worker process produced it.  These fields are excluded from equality so a
re-simulated run still compares equal to its cached twin.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.atomic import publish
from repro.audit import Auditor, audit_from_env
from repro.core.config import PredictorConfig
from repro.core.events import OutcomeKind
from repro.engine.batched import validate_engine_mode
from repro.engine.params import DEFAULT_TIMING, TimingParams
from repro.engine.simulator import SimulationResult
from repro.experiments.backends import resolve_backend
from repro.predictors.registry import create_predictor, predictor_info
from repro.sampling import (
    CheckpointStore,
    ParallelPlan,
    ParallelResult,
    SampledResult,
    SamplingPlan,
    TraceSource,
    run_parallel,
    run_sampled,
)
from repro.telemetry import Telemetry
from repro.telemetry.distributed import TelemetryRelay
from repro.telemetry.metrics import REGISTRY
from repro.telemetry.monitor import StatusBoard
from repro.workloads.catalog import (
    TABLE4_WORKLOADS,
    WorkloadSpec,
    default_scale,
    trace_identity,  # noqa: F401 - re-exported: callers key checkpoints by it
)

#: Environment variable overriding the result-cache directory
#: (``off``/``none``/empty disables caching entirely).
RESULTS_CACHE_ENV = "REPRO_RESULTS_CACHE"

#: Per-process relay-session slice counter: each serial or sampled plan
#: executed with a relay gets its own (worker, slice) shard, and worker
#: names differ per process, so fork-inherited counter values cannot
#: collide across processes.
_RELAY_SLICES = itertools.count()


@dataclass(frozen=True)
class RunResult:
    """Cached essentials of one simulation run.

    The first block of fields is the scientific payload and defines
    equality; the observability block (``wall_seconds``, ``worker``) is
    carried along in the cache but compares equal across runs, so a cache
    hit and a fresh simulation of the same fingerprint are ``==``.
    """

    workload: str
    config: str
    cpi: float
    instructions: int
    branches: int
    outcome_fractions: dict[str, float]
    preload_stats: dict[str, int]
    #: Registry name of the predictor that produced the run.  Part of
    #: equality — a zoo run is a different scientific object from a paper
    #: run.  Defaults to the paper stack so pre-zoo cache entries (which
    #: lack the key) load as what they are.
    predictor: str = "paper"
    #: Sampled-run provenance (plan description, interval count, CI
    #: halfwidths, checkpoint traffic); ``None`` for full-detail runs.
    #: Part of equality: a sampled estimate is a different scientific
    #: object from a full measurement and must never compare equal to one.
    sampling: dict | None = None
    #: Checkpoint-parallel execution provenance (mode, slice count,
    #: backend, checkpoint traffic); ``None`` for serial runs.  Excluded
    #: from equality on purpose: an exact-mode parallel run is
    #: bit-identical to its serial twin, and the ``repro verify`` parallel
    #: gate asserts exactly that via ``==``.
    parallel: dict | None = field(default=None, compare=False)
    #: Wall-clock seconds the producing simulation took (0 when unknown).
    wall_seconds: float = field(default=0.0, compare=False)
    #: Name of the process that simulated this run (e.g. ``MainProcess`` or
    #: ``ForkPoolWorker-2``).
    worker: str = field(default="", compare=False)

    @property
    def bad_fraction(self) -> float:
        """Fraction of branch outcomes that are bad."""
        return sum(
            fraction
            for name, fraction in self.outcome_fractions.items()
            if OutcomeKind(name).is_bad
        )

    @property
    def instructions_per_second(self) -> float:
        """Simulation throughput of the producing run (0 when unknown)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.instructions / self.wall_seconds

    def fraction(self, kind: OutcomeKind) -> float:
        """Outcome fraction for ``kind``."""
        return self.outcome_fractions.get(kind.value, 0.0)


#: Fields a cache entry must carry to be usable; missing any -> treated as
#: a corrupt/stale entry and re-simulated.
_REQUIRED_FIELDS = frozenset(
    {"workload", "config", "cpi", "instructions", "branches",
     "outcome_fractions", "preload_stats"}
)
_KNOWN_FIELDS = frozenset(f.name for f in dataclasses.fields(RunResult))


@dataclass(frozen=True)
class RunSpec:
    """One simulation run: the only description of its inputs.

    :meth:`validate` holds the refusal rules, :meth:`fingerprint` is the
    result-cache key, :func:`execute_plan` runs a plan and :func:`run_plan`
    serves it through the cache.  Plans are plain picklable values, which
    is what :func:`repro.experiments.pool.run_many` ships to its workers.
    """

    workload: WorkloadSpec
    config: PredictorConfig
    timing: TimingParams = DEFAULT_TIMING
    #: Trace scale (``None`` defers to ``REPRO_SCALE``/1.0).
    scale: float | None = None
    #: Audit the run: a strict :class:`repro.audit.Auditor` on the paper
    #: stack, the counter-conservation self-check on the zoo (``None``
    #: defers to ``REPRO_AUDIT``).  Audited runs skip cache reads, so the
    #: checks actually execute.
    audit: bool | None = None
    #: Interval-sampling plan (:func:`repro.sampling.run_sampled`); ``None``
    #: runs full detail.
    sampling: SamplingPlan | None = None
    #: :class:`repro.sampling.CheckpointStore` directory of sampled and
    #: parallel runs: warmed states are created once and reused.
    checkpoint_dir: str | None = None
    #: Checkpoint-parallel plan (:func:`repro.sampling.run_parallel`);
    #: ``None`` runs serially.  With ``sampling`` the slices run the
    #: sampling plan's intervals; alone the run is exact.
    parallel: ParallelPlan | None = None
    #: Execution backend of the parallel fan-out (``None`` defers to
    #: ``REPRO_BACKEND``/``process``).
    backend: str | None = None
    #: Predictor registry name (:mod:`repro.predictors.registry`).
    predictor: str = "paper"

    @property
    def label(self) -> str:
        """Status-board name of the run: ``workload/config``."""
        return f"{self.workload.name}/{self.config.name}"

    def resolved_scale(self) -> float:
        """The concrete scale (``None`` defers to ``REPRO_SCALE``/1.0)."""
        return self.scale if self.scale is not None else default_scale()

    def resolved_audit(self) -> bool:
        """The concrete audit switch (``None`` defers to ``REPRO_AUDIT``)."""
        return self.audit if self.audit is not None else audit_from_env()

    def validate(self) -> None:
        """Refuse a plan no executor honours, with a ``ValueError``.

        Audited runs cannot be checkpoint-parallel: audit hooks are
        per-record and do not cross worker processes, and skipping them
        silently would defeat the audit.  Sampled and parallel execution
        checkpoint the paper stack's pipeline state, so zoo predictors run
        serial full detail only.  Unknown predictor names are refused too.
        """
        if self.parallel is not None and self.resolved_audit():
            raise ValueError(
                "audited runs cannot be checkpoint-parallel: audit hooks are "
                "per-record and do not cross worker process boundaries; drop "
                "--parallel-intervals or the audit flag"
            )
        predictor_info(self.predictor)
        if self.predictor != "paper" and (self.sampling is not None
                                          or self.parallel is not None):
            raise ValueError(
                "sampled and checkpoint-parallel execution are implemented "
                "for the paper stack only; drop the sampling/parallel plan "
                "or use predictor='paper'"
            )

    def fingerprint(self) -> str:
        """Result-cache key: sha256 of the keyed inputs, 20 hex digits.

        Workload, configuration (every knob but ``name``), timing and the
        resolved scale are always keyed.  ``sampling``, ``parallel`` and
        ``predictor`` are keyed only when not the default, so adding each
        of them left every earlier key valid; a sampled estimate, a
        parallel run or a zoo run never shares a slot with the default
        run, even where ``repro verify`` proves the results equal.
        ``backend`` is keyed only with ``parallel`` (by resolved name): a
        serial run never uses it.
        ``audit`` and ``checkpoint_dir`` are never keyed: they change what
        is checked and how long a run takes, never its result.  The
        digests of older trees are pinned in
        ``tests/experiments/test_common.py``.
        """
        payload = repr((self.workload, _config_key(self.config),
                        dataclasses.astuple(self.timing),
                        self.resolved_scale()))
        if self.sampling is not None:
            payload += repr(("sampled", self.sampling.cache_key()))
        if self.parallel is not None:
            payload += repr(("parallel", self.parallel.cache_key(),
                             resolve_backend(self.backend).name))
        if self.predictor != "paper":
            payload += repr(("predictor", self.predictor))
        return hashlib.sha256(payload.encode()).hexdigest()[:20]


def _config_key(config: PredictorConfig) -> tuple:
    values = dataclasses.asdict(config)
    values.pop("name", None)
    return tuple(sorted((k, str(v)) for k, v in values.items()))


def _cache_dir() -> Path | None:
    root = os.environ.get(RESULTS_CACHE_ENV, ".results_cache")
    if root in ("", "off", "none"):
        return None
    return Path(root)


def cache_path(key: str) -> Path | None:
    """On-disk location of fingerprint ``key`` (``None`` = caching off)."""
    cache_dir = _cache_dir()
    if cache_dir is None:
        return None
    return cache_dir / f"{key}.json"


def load_cached_run(key: str) -> RunResult | None:
    """Load the cached result for fingerprint ``key``, tolerantly.

    Returns ``None`` (a cache miss) for anything unusable: missing file,
    truncated or non-JSON content, entries lacking required fields, or
    entries whose instruction count is implausible.  Unknown extra keys
    (from a newer schema) are dropped rather than rejected.
    """
    path = cache_path(key)
    if path is None:
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    if not _REQUIRED_FIELDS.issubset(payload):
        return None
    if not payload.get("instructions", 0):
        return None
    known = {k: v for k, v in payload.items() if k in _KNOWN_FIELDS}
    try:
        return RunResult(**known)
    except TypeError:
        return None


def store_cached_run(key: str, run: RunResult) -> None:
    """Publish ``run`` under fingerprint ``key``, atomically.

    The payload is written to a writer-private scratch file and moved into
    place (:func:`repro.atomic.publish`), so concurrent readers see either
    the old entry or the new one, never a torn write.  Concurrent writers
    of the same fingerprint produce identical scientific payloads;
    whichever rename lands last wins.
    """
    path = cache_path(key)
    if path is None:
        return
    with publish(path) as scratch:
        scratch.write_text(json.dumps(dataclasses.asdict(run)))


def _sampled_info(sampled: SampledResult) -> dict:
    """The ``sampling`` provenance block of a sampled run's cache entry."""
    return {
        "plan": sampled.plan.describe(),
        "plan_key": list(sampled.plan.cache_key()),
        "intervals": len(sampled.measurements),
        "detailed_records": sampled.detailed_records,
        "cpi_ci": sampled.cpi_ci,
        "bad_outcome_ci": sampled.bad_outcome_ci,
        "checkpoints_loaded": sampled.checkpoints_loaded,
        "checkpoints_saved": sampled.checkpoints_saved,
    }


def _parallel_info(stitched: ParallelResult) -> dict:
    """The ``parallel`` provenance block of a parallel run's cache entry."""
    return {
        "mode": stitched.mode,
        "plan_key": list(stitched.plan.cache_key()),
        "backend": stitched.backend,
        "slices": len(stitched.outcomes),
        "produced_records": stitched.produced_records,
        "checkpoints_loaded": stitched.checkpoints_loaded,
        "checkpoints_saved": stitched.checkpoints_saved,
    }


def execute_plan(
    plan: RunSpec,
    *,
    telemetry: Telemetry | None = None,
    relay: TelemetryRelay | None = None,
    status_label: str | None = None,
) -> tuple[SimulationResult, SampledResult | ParallelResult | None]:
    """Validate and run ``plan``, without the result cache.

    Parallel plans run through :func:`repro.sampling.run_parallel`, sampled
    ones through :func:`repro.sampling.run_sampled`, and the rest, paper
    stack and zoo alike, through ``create_predictor(plan.predictor).run``.
    Returns the result with the :class:`~repro.sampling.ParallelResult` or
    :class:`~repro.sampling.SampledResult` it came from (``None`` for a
    full-detail run), for callers that record provenance or print it.

    The observers are wiring, not plan: ``telemetry`` watches the run (the
    orchestrator of a parallel one), ``relay`` carries telemetry home —
    each parallel slice's from its worker, and a serial or sampled run's
    through a per-(process, run) shard that replaces ``telemetry`` — and
    ``status_label`` names the parallel workers' status-board entries.  An
    audited plan gets a fresh strict auditor.

    Every executed plan is counted once (``repro_runs_total{result=
    "simulated"}``, instructions, branches, ``repro_run_seconds``): in its
    relay shard's registry when it has one, so aggregation never
    double-counts, and in the process-local ``REGISTRY`` otherwise.
    """
    plan.validate()
    session = None
    if relay is not None and plan.parallel is None:
        session = relay.worker_session(
            multiprocessing.current_process().name, next(_RELAY_SLICES))
        telemetry = session.telemetry
    started = time.perf_counter()
    try:
        result, source = _execute(plan, telemetry, relay, status_label)
        registry = session.registry if session is not None else REGISTRY
        registry.counter(
            "repro_runs_total", "workload runs by result", ("result",),
        ).inc(result="simulated")
        registry.counter(
            "repro_run_instructions_total", "instructions simulated by runs",
        ).inc(result.counters.instructions)
        registry.counter(
            "repro_run_branches_total", "branches simulated by runs",
        ).inc(result.counters.branches)
        registry.histogram(
            "repro_run_seconds", "wall seconds per simulated run",
        ).observe(time.perf_counter() - started)
    finally:
        if session is not None:
            session.close()
    return result, source


def _execute(
    plan: RunSpec,
    telemetry: Telemetry | None,
    relay: TelemetryRelay | None,
    status_label: str | None,
) -> tuple[SimulationResult, SampledResult | ParallelResult | None]:
    """The dispatch of :func:`execute_plan`: parallel, sampled or full.

    Every plan reads its trace through one
    :class:`~repro.sampling.TraceSource`, which streams the workload's
    validated cache file.
    """
    source = TraceSource(plan.workload, plan.resolved_scale())
    store = (CheckpointStore(plan.checkpoint_dir)
             if plan.checkpoint_dir is not None else None)
    trace_key = source.identity()
    if plan.parallel is not None:
        stitched = run_parallel(
            source, config=plan.config, timing=plan.timing,
            plan=plan.parallel, sampling=plan.sampling,
            checkpoint_store=store, trace_key=trace_key, backend=plan.backend,
            telemetry=telemetry, relay=relay, status_label=status_label,
        )
        return stitched.result, stitched
    audit = plan.resolved_audit()
    with source.open() as trace:
        if not trace:
            raise RuntimeError(f"empty trace for {plan.workload.name} at "
                               f"scale {source.scale}")
        if plan.sampling is not None:
            sampled = run_sampled(
                trace, config=plan.config, timing=plan.timing,
                plan=plan.sampling, audit=Auditor() if audit else None,
                telemetry=telemetry, checkpoint_store=store,
                trace_key=trace_key,
            )
            return sampled.result, sampled
        predictor = create_predictor(
            plan.predictor, plan.config, plan.timing, audit=audit,
            telemetry=telemetry)
        return predictor.run(trace), None


def run_plan(plan: RunSpec) -> RunResult:
    """Run ``plan`` through the on-disk result cache.

    A refused plan raises before the cache is read.  A hit is served
    without simulating, unless the plan is audited: a hit would skip the
    checks, so audited runs only publish their result, which equals an
    unaudited run's.  Every run is counted in the metrics registry (a hit
    as ``cached``, a miss by :func:`execute_plan`) and heartbeats on the
    status board (``$REPRO_STATUS``).  With a relay active
    (``$REPRO_RELAY``), the run's telemetry and metrics go home through it.
    """
    plan.validate()
    key = plan.fingerprint()
    board = StatusBoard.from_env()
    label = plan.label
    if not plan.resolved_audit():
        cached = load_cached_run(key)
        if cached is not None:
            REGISTRY.counter(
                "repro_runs_total", "workload runs by result", ("result",),
            ).inc(result="cached")
            if board is not None:
                board.beat(label, "cached",
                           instructions=cached.instructions,
                           seconds=cached.wall_seconds)
            return cached

    if board is not None:
        board.beat(label, "measuring")
    started = time.perf_counter()
    try:
        result, source = execute_plan(
            plan, relay=TelemetryRelay.from_env(), status_label=label)
    except BaseException:
        if board is not None:
            board.beat(label, "failed")
        raise
    elapsed = time.perf_counter() - started
    sampled = source.sampled if plan.parallel is not None else source
    run = RunResult(
        workload=plan.workload.name,
        config=plan.config.name,
        cpi=result.cpi,
        instructions=result.counters.instructions,
        branches=result.counters.branches,
        outcome_fractions={
            kind.value: fraction
            for kind, fraction in result.counters.outcome_fractions().items()
        },
        preload_stats=dict(result.preload_stats),
        predictor=plan.predictor,
        sampling=_sampled_info(sampled) if sampled is not None else None,
        parallel=(_parallel_info(source) if plan.parallel is not None
                  else None),
        wall_seconds=elapsed,
        worker=multiprocessing.current_process().name,
    )
    if board is not None:
        board.beat(label, "done", instructions=run.instructions,
                   seconds=elapsed)
    store_cached_run(key, run)
    return run


def run_workload(
    spec: WorkloadSpec,
    config: PredictorConfig,
    timing: TimingParams = DEFAULT_TIMING,
    scale: float | None = None,
    **plan,
) -> RunResult:
    """Simulate ``spec`` under ``config``, using the on-disk result cache.

    The keyword arguments are the remaining :class:`RunSpec` fields
    (``audit``, ``sampling``, ``checkpoint_dir``, ``parallel``,
    ``backend``, ``predictor``); see :func:`run_plan`.  An
    ``engine_mode`` keyword is still accepted and checked
    (:mod:`repro.engine.batched`), but it selects nothing: there is one
    engine.  This is the serial single-run entry point; batches of runs
    should go through :func:`repro.experiments.pool.run_many`, which
    deduplicates, consults the same cache, and can dispatch misses to
    worker processes.
    """
    validate_engine_mode(plan.pop("engine_mode", "object"))
    return run_plan(RunSpec(spec, config, timing, scale, **plan))


def run_all_workloads(
    config: PredictorConfig,
    timing: TimingParams = DEFAULT_TIMING,
    scale: float | None = None,
    workloads: tuple[WorkloadSpec, ...] = TABLE4_WORKLOADS,
) -> list[RunResult]:
    """One run per catalog workload under ``config`` (serial; cached)."""
    return [run_workload(spec, config, timing, scale) for spec in workloads]


def geometric_mean(values: list[float]) -> float:
    """Geometric mean (0 when any value is non-positive)."""
    if not values or any(v <= 0 for v in values):
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def mean(values: list[float]) -> float:
    """Arithmetic mean (0 for empty input)."""
    return sum(values) / len(values) if values else 0.0
