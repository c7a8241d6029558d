"""Shared experiment infrastructure: runs, caching, aggregation.

Every figure of the paper is a set of (workload, configuration) simulation
runs post-processed into CPI improvements.  Runs are expensive, and the
figures share many of them (every figure needs the configuration-1 baseline
on all 13 traces), so results are cached on disk as JSON, one file per full
(workload, config, timing, scale) fingerprint.  Delete ``.results_cache/``
(or set ``REPRO_RESULTS_CACHE=off``) to force re-simulation.

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

from repro.audit import Auditor, audit_from_env
from repro.core.config import PredictorConfig
from repro.core.events import OutcomeKind
from repro.engine.params import DEFAULT_TIMING, TimingParams
from repro.engine.simulator import Simulator
from repro.experiments.backends import resolve_backend
from repro.sampling import (
    CheckpointStore,
    ParallelPlan,
    SamplingPlan,
    TraceSource,
    run_parallel,
    run_sampled,
)
from repro.telemetry.distributed import TelemetryRelay
from repro.telemetry.metrics import REGISTRY
from repro.telemetry.monitor import StatusBoard
from repro.workloads.catalog import TABLE4_WORKLOADS, WorkloadSpec, default_scale

#: Environment variable overriding the result-cache directory
#: (``off``/``none``/empty disables caching entirely).
RESULTS_CACHE_ENV = "REPRO_RESULTS_CACHE"

#: Per-process relay-session slice counter: each ``run_workload`` call
#: under an active relay gets its own (worker, slice) shard, and worker
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


def run_fingerprint(spec: WorkloadSpec, config: PredictorConfig,
                    timing: TimingParams, scale: float,
                    sampling: SamplingPlan | None = None,
                    engine_mode: str = "object",
                    parallel: ParallelPlan | None = None,
                    backend: str | None = None,
                    predictor: str = "paper") -> str:
    """Stable cache key of one (workload, config, timing, scale) run.

    Any change to the workload's generator parameters, the configuration's
    structural knobs (``name`` excluded), the timing model, or the scale
    yields a new fingerprint — which is also the cache invalidation rule:
    nothing is ever invalidated in place, changed inputs simply miss.

    A sampled run keys on the sampling plan as well: its estimates must
    never be served from (or to) a full-detail run's cache slot.  Full runs
    keep their historical fingerprints (``sampling=None`` adds nothing to
    the payload).

    ``engine_mode`` is fingerprinted the same way: only a non-default mode
    extends the payload, so object-engine results keep their historical
    keys while ``auto`` results can never be served from (or poison) an
    object run's slot — even though the engines are verified bit-identical,
    the cache must not *assume* it.

    ``parallel`` follows the same append-only rule: a checkpoint-parallel
    run keys on its plan (K) *and* the resolved backend name, so a serial
    run's cache slot is never served for a parallel spec and vice versa —
    exact-mode parity between the two slots is something ``repro verify``
    proves, not something the cache presumes.  ``backend`` extends the
    payload only alongside ``parallel``: for serial runs it is pure
    execution plumbing with no bearing on the result.

    ``predictor`` is append-only too: the default paper stack adds nothing
    (historical keys survive), while every zoo predictor extends the
    payload with its registry name — a zoo run can never collide with a
    cached paper-stack slot, or with another zoo predictor's.
    """
    payload = repr((spec, _config_key(config), dataclasses.astuple(timing), scale))
    if sampling is not None:
        payload += repr(("sampled", sampling.cache_key()))
    if engine_mode != "object":
        payload += repr(("engine", engine_mode))
    if parallel is not None:
        payload += repr(("parallel", parallel.cache_key(),
                         resolve_backend(backend).name))
    if predictor != "paper":
        payload += repr(("predictor", predictor))
    return hashlib.sha256(payload.encode()).hexdigest()[:20]


# Backwards-compatible private alias (older tests/scripts may import it).
_fingerprint = run_fingerprint


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

    The payload is written to a writer-private temp file and moved into
    place with :func:`os.replace`, so concurrent readers see either the old
    entry or the new one, never a torn write.  Concurrent writers of the
    same fingerprint produce identical scientific payloads; whichever
    rename lands last wins.
    """
    path = cache_path(key)
    if path is None:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_suffix(f".tmp{os.getpid()}")
    scratch.write_text(json.dumps(dataclasses.asdict(run)))
    os.replace(scratch, path)  # atomic vs concurrent readers and writers


def trace_identity(spec: WorkloadSpec, scale: float) -> str:
    """Stable identity of one generated trace (checkpoint provenance)."""
    return hashlib.sha256(repr((spec, scale)).encode()).hexdigest()[:16]


def _sampled_info(sampled) -> dict:
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


def _simulate(spec, config, timing, scale, auditor, sampling,
              checkpoint_dir, engine_mode, parallel, backend,
              relay, telemetry, label, predictor="paper"):
    """Dispatch one cache-missed run to its execution strategy.

    Returns ``(result, sampling_info, parallel_info)`` — the simulation
    result plus the provenance blocks the cache entry records.
    """
    sampling_info: dict | None = None
    parallel_info: dict | None = None
    if parallel is not None:
        store = (CheckpointStore(checkpoint_dir)
                 if checkpoint_dir is not None else None)
        stitched = run_parallel(
            TraceSource.for_workload(spec, scale),
            config=config, timing=timing, plan=parallel, sampling=sampling,
            checkpoint_store=store, trace_key=trace_identity(spec, scale),
            engine_mode=engine_mode, backend=backend,
            relay=relay, status_label=label,
        )
        result = stitched.result
        parallel_info = {
            "mode": stitched.mode,
            "plan_key": list(stitched.plan.cache_key()),
            "backend": stitched.backend,
            "slices": len(stitched.outcomes),
            "exact": stitched.exact,
            "warm_fallbacks": stitched.warm_fallbacks,
            "produced_records": stitched.produced_records,
            "checkpoints_loaded": stitched.checkpoints_loaded,
            "checkpoints_saved": stitched.checkpoints_saved,
        }
        if stitched.sampled is not None:
            sampling_info = _sampled_info(stitched.sampled)
        return result, sampling_info, parallel_info
    trace = spec.trace(scale)
    if not trace:
        raise RuntimeError(f"empty trace for {spec.name} at scale {scale}")
    if predictor != "paper":
        from repro.predictors.registry import create_predictor

        instance = create_predictor(
            predictor, config=config, timing=timing,
            audit=auditor is not None, telemetry=telemetry)
        return instance.run(trace), None, None
    if sampling is not None:
        store = (CheckpointStore(checkpoint_dir)
                 if checkpoint_dir is not None else None)
        sampled = run_sampled(
            trace, config=config, timing=timing, plan=sampling,
            audit=auditor, checkpoint_store=store,
            trace_key=trace_identity(spec, scale),
            engine_mode=engine_mode, telemetry=telemetry,
        )
        return sampled.result, _sampled_info(sampled), None
    result = Simulator(config=config, timing=timing, audit=auditor,
                       engine_mode=engine_mode,
                       telemetry=telemetry).run(trace)
    return result, None, None


def run_workload(
    spec: WorkloadSpec,
    config: PredictorConfig,
    timing: TimingParams = DEFAULT_TIMING,
    scale: float | None = None,
    audit: bool | None = None,
    sampling: SamplingPlan | None = None,
    checkpoint_dir: str | None = None,
    engine_mode: str = "object",
    parallel: ParallelPlan | None = None,
    backend: str | None = None,
    predictor: str = "paper",
) -> RunResult:
    """Simulate ``spec`` under ``config``, using the on-disk result cache.

    This is the serial single-run entry point; batches of runs should go
    through :func:`repro.experiments.pool.run_many`, which deduplicates,
    consults the same cache, and can dispatch misses to worker processes.

    ``audit`` runs the simulation under a strict
    :class:`repro.audit.Auditor` (``None`` defers to the ``REPRO_AUDIT``
    environment variable).  Audited runs bypass cache *reads* — a hit
    would skip the checks — but still publish their result, which is
    identical to an unaudited run's.

    ``sampling`` switches the run to interval sampling
    (:func:`repro.sampling.run_sampled`): the result carries extrapolated
    estimates plus a ``sampling`` provenance block, and caches under a
    distinct fingerprint.  ``checkpoint_dir`` (sampled runs only) names a
    :class:`repro.sampling.CheckpointStore` so warmed interval states are
    created once and reused.

    ``engine_mode`` selects the engine of every detailed record — full,
    sampled and parallel runs alike (:data:`repro.engine.ENGINE_MODES`,
    dispatched by :meth:`repro.engine.simulator.Simulator.feed`); warming
    always uses the object engine.  Results are verified bit-identical
    across engines, but each mode caches under its own fingerprint.

    ``parallel`` switches execution to checkpoint-parallel interval
    simulation (:func:`repro.sampling.run_parallel`): the trace is cut
    into K slices fanned out over ``backend``, and the stitched result
    caches under its own fingerprint.  Combined with ``sampling`` the
    slices run the sampling plan's intervals (CI-bounded estimates);
    alone, the run is exact — bit-identical to the serial path.
    Parallel runs cannot be audited: per-record audit hooks do not cross
    worker process boundaries, and silently skipping them would defeat
    the point of ``audit``.

    ``predictor`` selects a registered zoo predictor instead of the paper
    stack (``repro.predictors``).  Zoo runs are serial full-detail only:
    sampling, checkpoint-parallel execution, and alternate engine modes
    are paper-stack machinery and are rejected rather than silently
    ignored.  ``audit`` enables the zoo's counter-conservation self-check.
    """
    if scale is None:
        scale = default_scale()
    if audit is None:
        audit = audit_from_env()
    if parallel is not None and audit:
        raise ValueError(
            "audited runs cannot be checkpoint-parallel: audit hooks are "
            "per-record and do not cross worker process boundaries; drop "
            "--parallel-intervals or the audit flag"
        )
    if predictor != "paper":
        from repro.predictors.registry import predictor_info

        predictor_info(predictor)  # fail fast on unknown names
        if sampling is not None or parallel is not None:
            raise ValueError(
                "sampled and checkpoint-parallel execution are implemented "
                "for the paper stack only; drop the sampling/parallel plan "
                "or use predictor='paper'"
            )
        if engine_mode != "object":
            raise ValueError(
                "alternate engine modes exist for the paper stack only; "
                "zoo predictors have a single engine"
            )
    key = run_fingerprint(spec, config, timing, scale, sampling,
                          engine_mode=engine_mode, parallel=parallel,
                          backend=backend, predictor=predictor)
    board = StatusBoard.from_env()
    label = f"{spec.name}/{config.name}"
    if not audit:
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

    # With a relay active ($REPRO_RELAY), serial and sampled runs stream
    # their telemetry into a per-(process, run) shard; parallel runs hand
    # the relay down so each slice gets its own worker shard instead.
    # Metrics for the run land in the session registry when one is open
    # (relayed home at close) and in the process-local REGISTRY otherwise
    # — exactly one of the two, so aggregation never double-counts.
    relay = TelemetryRelay.from_env()
    session = None
    telemetry = None
    if relay is not None and parallel is None:
        session = relay.worker_session(
            multiprocessing.current_process().name, next(_RELAY_SLICES))
        telemetry = session.telemetry
    if board is not None:
        board.beat(label, "measuring")

    started = time.perf_counter()
    auditor = Auditor() if audit else None
    try:
        result, sampling_info, parallel_info = _simulate(
            spec, config, timing, scale, auditor, sampling, checkpoint_dir,
            engine_mode, parallel, backend, relay, telemetry, label,
            predictor=predictor)
    except BaseException:
        if session is not None:
            session.close()
        if board is not None:
            board.beat(label, "failed")
        raise
    elapsed = time.perf_counter() - started
    run = RunResult(
        workload=spec.name,
        config=config.name,
        cpi=result.cpi,
        instructions=result.counters.instructions,
        branches=result.counters.branches,
        outcome_fractions={
            kind.value: fraction
            for kind, fraction in result.counters.outcome_fractions().items()
        },
        preload_stats=dict(result.preload_stats),
        predictor=predictor,
        sampling=sampling_info,
        parallel=parallel_info,
        wall_seconds=elapsed,
        worker=multiprocessing.current_process().name,
    )
    registry = session.registry if session is not None else REGISTRY
    registry.counter(
        "repro_runs_total", "workload runs by result", ("result",),
    ).inc(result="simulated")
    registry.counter(
        "repro_run_instructions_total", "instructions simulated by runs",
    ).inc(run.instructions)
    registry.counter(
        "repro_run_branches_total", "branches simulated by runs",
    ).inc(run.branches)
    registry.histogram(
        "repro_run_seconds", "wall seconds per simulated run",
    ).observe(elapsed)
    if session is not None:
        session.close()
    if board is not None:
        board.beat(label, "done", instructions=run.instructions,
                   seconds=elapsed)
    store_cached_run(key, run)
    return run


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
