"""Checkpoint-parallel interval simulation.

Splits one long trace into K independent interval slices and simulates
them concurrently.  Every slice reports
:class:`~repro.sampling.runner.IntervalMeasurement` records measured by the
same window feed as :func:`~repro.sampling.runner.run_sampled`, and the
work is cut by the one partition, :func:`~repro.sampling.plan.plan_slices`.
Two modes:

* **exact** (no sampling plan): the trace is cut into K contiguous
  slices.  A checkpoint-producer pass feeds the detailed model once and
  snapshots :meth:`~repro.engine.simulator.Simulator.state_dict` at each
  slice boundary, and each slice's task carries that state to its worker,
  which resumes from exactly the state the serial run reached there.  So
  each per-slice counter delta is the serial run's delta and the stitched
  result is **bit-identical** to the serial run (the last slice's
  cumulative state *is* the serial end state).  The producer pass is the
  cold-run cost; with a :class:`~repro.sampling.checkpoint.CheckpointStore`
  attached the boundary states persist, so reruns — different engine,
  telemetry off, bisection sweeps over anything downstream of the trace —
  load them in the producer instead of stepping and pay only the fan-out,
  giving near-linear scaling in K.  The producer is the only reader of
  exact boundary states; workers never open the store.
* **sampled** (with a :class:`~repro.sampling.plan.SamplingPlan`): the
  plan's measured intervals are partitioned into K contiguous chunks and
  each worker functionally warms from the trace start (or its chunk's
  checkpoint) before running its share of the plan through the same
  interval core as :func:`~repro.sampling.runner.run_sampled`, and the
  stitched measurements go through the same estimator.  Warming lineage
  differs from the serial sampled run (a worker's prefix is warmed, never
  detailed), so the stitched estimate is CI-bounded, not bit-identical —
  the same contract as sampled-vs-full.

Workers dispatch through the pluggable
:class:`~repro.experiments.backends.Backend` seam (``serial``,
``process``), the same abstraction the experiment run-matrix pool uses.
Checkpoints never cross lineages: exact boundary states, sampled chunk
states, and the serial sampled runner's per-interval states all live
under distinct plan keys in the store.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry

from repro.core.config import PredictorConfig, ZEC12_CONFIG_2
from repro.engine.params import DEFAULT_TIMING, TimingParams
from repro.engine.simulator import SimulationResult, Simulator
from repro.sampling.checkpoint import CheckpointStore
from repro.sampling.plan import Interval, SamplingPlan, plan_slices
from repro.sampling.runner import (
    IntervalMeasurement,
    SampledResult,
    _estimate,
    _execute_intervals,
    _measured_feed,
    _TraceCursor,
)
from repro.telemetry.distributed import ORCHESTRATOR, TelemetryRelay
from repro.telemetry.hub import Telemetry as _Telemetry
from repro.telemetry.metrics import REGISTRY
from repro.telemetry.monitor import StatusBoard, shutdown_sweep
from repro.telemetry.tracer import Tracer as _Tracer
from repro.trace.reader import open_trace
from repro.workloads.catalog import WorkloadSpec, default_scale

#: Count-shaped histogram bounds for per-slice record volumes.
_RECORD_BUCKETS = (100.0, 1_000.0, 10_000.0, 100_000.0,
                   1_000_000.0, 10_000_000.0)


@dataclass(frozen=True)
class TraceSource:
    """A picklable recipe for obtaining one trace in any process.

    Workers cannot receive a live :class:`~repro.trace.reader.TraceFile`
    (open file handles don't pickle) and should not receive a
    million-record list (pickling it per task dwarfs the simulation), so
    the fan-out ships this recipe instead.  Exactly one of the three
    fields is the primary source; :meth:`open` prefers the streaming path
    so each worker decodes only its own slice.
    """

    #: Catalog workload to regenerate/stream from the trace cache.
    workload: WorkloadSpec | None = None
    #: Scale for ``workload`` (resolved, never ``None`` when workload set).
    scale: float | None = None
    #: On-disk ``.ztrc`` file to stream with :func:`open_trace`.
    path: str | None = None
    #: In-memory records (tests and tiny traces only — pickled per task).
    records: tuple = ()

    @classmethod
    def for_workload(cls, spec: WorkloadSpec,
                     scale: float | None = None) -> "TraceSource":
        """Source for a catalog workload, streaming when the cache allows.

        Ensures the on-disk trace exists up front (one generation, not one
        per worker); with the trace cache disabled there is no stable path,
        so workers fall back to regenerating the records in memory.
        """
        if scale is None:
            scale = default_scale()
        try:
            path = str(spec.trace_path(scale))
        except RuntimeError:
            path = None
        return cls(workload=spec, scale=scale, path=path)

    @classmethod
    def for_path(cls, path) -> "TraceSource":
        """Source streaming an existing trace file."""
        return cls(path=str(path))

    @classmethod
    def for_records(cls, records) -> "TraceSource":
        """In-memory source (serial backend or small traces)."""
        return cls(records=tuple(records))

    def open(self):
        """Materialize the trace: a ``TraceFile``, list, or record tuple."""
        if self.path is not None:
            try:
                return open_trace(self.path)
            except (OSError, ValueError):
                pass  # cache evicted under us; fall through to regenerate
        if self.workload is not None:
            return self.workload.trace(self.scale)
        return self.records

    def identity(self) -> str:
        """Stable trace identity for checkpoint provenance keys."""
        if self.workload is not None:
            from repro.experiments.common import trace_identity

            return trace_identity(self.workload, self.scale)
        if self.path is not None:
            return hashlib.sha256(
                repr(("path", self.path)).encode()).hexdigest()[:16]
        return hashlib.sha256(
            repr(("records", self.records)).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ParallelPlan:
    """How many independent interval slices to cut a trace into."""

    #: Worker slices (K).  The trace is cut into K contiguous slices in
    #: exact mode; a sampling plan's intervals into K chunks in sampled
    #: mode.  Short traces may yield fewer actual slices.
    intervals: int = 4

    def __post_init__(self) -> None:
        if self.intervals < 1:
            raise ValueError("parallel plan needs at least one interval")

    def cache_key(self) -> tuple:
        """Stable tuple identifying this plan (result/checkpoint keys)."""
        return ("parallel", self.intervals)

    def describe(self) -> str:
        """One-line human description."""
        return f"checkpoint-parallel: {self.intervals} interval slice(s)"


#: Checkpoint plan-key prefixes.  Exact boundary states depend only on
#: (model, trace, boundary record) — they are the serial detailed state —
#: so they key by boundary, shareable across K.  Sampled chunk lineages
#: additionally depend on the sampling plan and the chunking.
_EXACT_KEY = ("parallel", "exact")


def _sampled_key(plan: "ParallelPlan", sampling: SamplingPlan) -> tuple:
    return ("parallel", "sampled", plan.intervals, sampling.cache_key())


@dataclass(frozen=True)
class _SliceTask:
    """Everything one fan-out worker needs (module-level picklable)."""

    source: TraceSource
    config: PredictorConfig
    timing: TimingParams
    index: int
    mode: str  # "exact" | "sampled"
    #: Exact mode: the one slice (``warm_start == start``).  Sampled mode:
    #: the chunk of sampling-plan intervals this worker runs.
    intervals: tuple[Interval, ...]
    #: Exact mode: the producer's state at the slice start (``None`` for
    #: the slice at record 0, where the serial run also starts cold).
    state: dict | None = None
    #: Sampled mode: the chunk checkpoint lineage (store directory, trace
    #: identity, plan key); exact workers never open the store.
    checkpoint_dir: str | None = None
    trace_key: str | None = None
    plan_key: tuple | None = None
    engine_mode: str = "object"
    is_last: bool = False
    #: Telemetry relay directory this worker streams its shard into
    #: (``None`` = relay off; the zero-cost default).
    relay_dir: str | None = None
    #: Relay run id (shard filenames key on it).
    relay_run: str = "run"
    #: Human label for status-board heartbeats (defaults to the slice).
    status_label: str = ""


@dataclass
class SliceOutcome:
    """What one worker slice produced."""

    index: int
    #: First record the worker touched in detail (its first warm start).
    start: int
    stop: int
    #: One measurement per exact slice; one per plan interval in sampled
    #: mode.
    measurements: list[IntervalMeasurement]
    #: Full finished result — only the last slice carries one (its end
    #: state is the whole run's end state).
    final: SimulationResult | None = None
    detailed_records: int = 0
    #: Chunk checkpoint store traffic (sampled mode only).
    checkpoints_loaded: int = 0
    checkpoints_saved: int = 0
    #: CPU seconds this worker spent (open + simulate), measured inside
    #: the worker with ``time.process_time`` so concurrent slices
    #: time-sharing a core do not inflate each other.  With one core per
    #: slice, the fan-out's wall clock converges to the slowest slice.
    #: A shipped start state is unpickled before the task runs, so it is
    #: not counted here.
    seconds: float = 0.0


def _slice_metrics(registry, outcome: SliceOutcome) -> None:
    """Fold one finished slice into a worker-session metrics registry.

    The counters/histograms here are the relay's mergeable view of
    :class:`~repro.metrics.counters.SimCounters` and checkpoint traffic:
    summed across worker shards, ``repro_slice_instructions_total`` and
    the ``repro_slice_records`` histogram totals telescope to the serial
    run's whole-trace numbers (exact lineage), which the round-trip tests
    assert.  Store traffic exists only for sampled chunks: every chunk
    interval either loads its state (a hit) or warms and saves it (a miss).
    """
    registry.counter(
        "repro_slice_instructions_total",
        "instructions simulated by this worker's slices",
    ).inc(sum(m.instructions for m in outcome.measurements))
    registry.counter(
        "repro_slice_branches_total",
        "branches simulated by this worker's slices",
    ).inc(sum(m.branches for m in outcome.measurements))
    registry.histogram(
        "repro_slice_records",
        "records stepped in detail per slice",
        buckets=_RECORD_BUCKETS,
    ).observe(outcome.detailed_records)
    registry.histogram(
        "repro_slice_seconds",
        "CPU seconds per slice",
    ).observe(outcome.seconds)
    loads = registry.counter(
        "repro_checkpoint_loads_total",
        "checkpoint loads by result",
        ("result",),
    )
    if outcome.checkpoints_loaded:
        loads.inc(outcome.checkpoints_loaded, result="hit")
    if outcome.checkpoints_saved:
        loads.inc(outcome.checkpoints_saved, result="miss")
        registry.counter(
            "repro_checkpoint_saves_total",
            "checkpoint states saved",
        ).inc(outcome.checkpoints_saved)


def _run_slice(task: _SliceTask) -> SliceOutcome:
    """Fan-out worker body: simulate one slice from its start state.

    Module-level so it pickles under every backend.  Opens its own trace
    (streaming where possible — a worker decodes only the records it
    touches), then either resumes from the producer's state and feeds its
    slice in detail (exact mode) or runs its chunk of the sampling plan
    through the shared interval core (sampled mode).

    With a relay attached (``task.relay_dir``) the worker streams its
    telemetry into a per-(run, worker, slice) shard and publishes a
    metrics snapshot at exit; with ``$REPRO_STATUS`` set it heartbeats
    progress onto the shared status board.  Both default off and cost
    nothing then — the hot loop sees only ``is None`` tests, and results
    are byte-identical either way (pinned by the relay parity tests).
    """
    session = None
    if task.relay_dir is not None:
        relay = TelemetryRelay(task.relay_dir, task.relay_run)
        session = relay.worker_session(f"w{task.index}", task.index)
    telemetry = session.telemetry if session is not None else None
    board = StatusBoard.from_env()
    label = task.status_label or f"slice {task.index}"
    try:
        outcome = _slice_body(task, telemetry, board, label)
        if session is not None:
            _slice_metrics(session.registry, outcome)
        if board is not None:
            span = outcome.stop - outcome.start
            board.beat(label, "done", done=span, total=span,
                       instructions=outcome.detailed_records,
                       seconds=outcome.seconds)
        return outcome
    finally:
        if session is not None:
            session.close()


def _slice_body(task: _SliceTask, telemetry, board, label) -> SliceOutcome:
    """The slice simulation proper (observers threaded, both optional)."""
    started = time.process_time()
    first, last = task.intervals[0], task.intervals[-1]
    span = last.stop - first.warm_start
    trace = task.source.open()
    close = getattr(trace, "close", None)
    try:
        sim = Simulator(config=task.config, timing=task.timing,
                        engine_mode=task.engine_mode)
        cursor = _TraceCursor(trace)
        if task.state is not None:
            sim.load_state_dict(task.state)
            cursor.skip_to(first.start)
        if telemetry is not None:
            # Attached after the start state loads, so the shard carries
            # the slice's own events only.
            sim.telemetry = telemetry
            telemetry.attach(sim)
        if board is not None:
            board.beat(label, "measuring", done=0, total=span)
        loaded = saved = 0
        if task.mode == "sampled":
            store = (CheckpointStore(task.checkpoint_dir)
                     if task.checkpoint_dir is not None else None)
            measurements, detailed, loaded, saved = _execute_intervals(
                sim, cursor, task.intervals, telemetry=telemetry,
                store=store, trace_key=task.trace_key,
                plan_key=task.plan_key,
            )
        else:
            if telemetry is not None:
                telemetry.on_interval(sim._cycle, task.index, first.start,
                                      "measure")
            beat = None
            if board is not None:
                def beat(fed: int) -> None:
                    board.beat(label, "measuring", done=fed, total=span)
            delta = _measured_feed(sim, cursor.window(first.start, last.stop),
                                   beat)
            if telemetry is not None:
                telemetry.on_interval(sim._cycle, task.index, last.stop,
                                      "end")
            measurements = [IntervalMeasurement(
                index=task.index, start=first.start, stop=last.stop,
                from_checkpoint=task.state is not None, delta=delta,
            )]
            detailed = span
        return SliceOutcome(
            index=task.index,
            start=first.warm_start,
            stop=last.stop,
            measurements=measurements,
            final=sim.finish() if task.is_last else None,
            detailed_records=detailed,
            checkpoints_loaded=loaded,
            checkpoints_saved=saved,
            seconds=time.process_time() - started,
        )
    finally:
        if close is not None:
            close()


@dataclass
class ParallelResult:
    """Everything a checkpoint-parallel run produces."""

    config_name: str
    plan: ParallelPlan
    mode: str  # "exact" | "sampled"
    backend: str
    total_records: int
    outcomes: list[SliceOutcome]
    #: Stitched whole-trace result.  Exact mode: the last slice's finished
    #: result — bit-identical to serial by checkpoint lineage.  Sampled
    #: mode: the extrapolated counters over the last chunk's structures.
    result: SimulationResult
    cpi: float
    #: 95% CI half-width of the CPI (0.0 in exact mode — it is not an
    #: estimate).
    cpi_ci: float
    bad_outcome_fraction: float
    bad_outcome_ci: float
    #: Records the checkpoint producer fed in detail this run (0 when
    #: every boundary state came from the store — the warm-rerun case).
    produced_records: int
    #: Exact mode: boundary states the producer read from the store.
    #: Sampled mode: chunk states the workers read.
    checkpoints_loaded: int
    checkpoints_saved: int
    #: Sampled-mode estimates in :class:`SampledResult` form (``None`` in
    #: exact mode), for :func:`~repro.sampling.estimate.error_report`.
    sampled: SampledResult | None = None
    #: Wall-clock seconds of the checkpoint-producer pass, stepping and
    #: store reads alike (a warm rerun spends its boundary loads here);
    #: 0.0 in sampled mode.
    produce_seconds: float = 0.0

    @property
    def critical_path_seconds(self) -> float:
        """Wall-clock lower bound with one core per slice.

        The producer pass is inherently serial; the fan-out completes when
        its slowest slice does (per-slice CPU seconds, so concurrent
        slices time-sharing a core do not count each other's runtime).
        On a host with >= K idle cores the observed wall time converges
        to this; the benchmark reports serial time over this path as the
        scaling figure so the measurement is a property of the
        decomposition, not of the core count of the machine running it.
        """
        slowest = max((o.seconds for o in self.outcomes), default=0.0)
        return self.produce_seconds + slowest

    def describe(self) -> str:
        """One-line human description of how the run executed."""
        return (f"{self.plan.describe()} [{self.mode}] over "
                f"{self.backend} backend — {len(self.outcomes)} slice(s), "
                f"{self.checkpoints_loaded} checkpoint(s) loaded, "
                f"{self.checkpoints_saved} saved, "
                f"producer stepped {self.produced_records:,} record(s)")


def _produce_checkpoints(
    trace,
    slices: list[Interval],
    sim: Simulator,
    store: CheckpointStore | None,
    trace_key: str | None,
    telemetry: "Telemetry | None",
) -> tuple[dict[int, dict], int, int, int]:
    """The exact state at every interior slice boundary.

    One detailed pass of the fresh ``sim`` from record 0, snapshotting at
    each boundary — except that boundaries whose state already sits in
    ``store`` are *loaded* and skipped over (a seek, not a scan), so a
    warmed store makes this pass free.  Every state, computed or loaded,
    travels to its slice inside the task: the producer is the only reader
    of exact boundary states.

    Returns ``(states, produced_records, loaded, saved)``, ``states``
    keyed by boundary record.
    """
    model = sim.model_fingerprint()
    use_store = store is not None and trace_key is not None
    cursor = _TraceCursor(trace)
    states: dict[int, dict] = {}
    produced = loaded = saved = 0
    for index, piece in enumerate(slices[1:]):
        boundary = piece.start
        state = (store.load(model, trace_key, _EXACT_KEY, boundary)
                 if use_store else None)
        if state is not None:
            try:
                sim.load_state_dict(state)
            except ValueError as refusal:
                # Stale schema or foreign fingerprint: recompute.
                store.refuse(model, trace_key, _EXACT_KEY, boundary, refusal)
                state = None
        if state is not None:
            loaded += 1
            cursor.skip_to(boundary)
        else:
            produced += boundary - cursor.position
            sim.feed(cursor.window(cursor.position, boundary))
            state = sim.state_dict()
            if use_store:
                store.save(model, trace_key, _EXACT_KEY, boundary, state)
                saved += 1
            if telemetry is not None:
                telemetry.on_interval(sim._cycle, index, boundary, "produce")
        states[boundary] = state
    return states, produced, loaded, saved


def run_parallel(
    source: TraceSource,
    config: PredictorConfig = ZEC12_CONFIG_2,
    timing: TimingParams = DEFAULT_TIMING,
    plan: ParallelPlan | None = None,
    sampling: SamplingPlan | None = None,
    *,
    checkpoint_store: CheckpointStore | None = None,
    trace_key: str | None = None,
    engine_mode: str = "object",
    backend: "str | None" = None,
    jobs: int | None = None,
    telemetry: "Telemetry | None" = None,
    relay: TelemetryRelay | None = None,
    status_label: str | None = None,
) -> ParallelResult:
    """Simulate ``source`` across K parallel interval slices and stitch.

    Exact mode (``sampling is None``): produce/load exact boundary
    checkpoints, fan the slices out, and return a result bit-identical to
    the serial run.  Sampled mode: run ``sampling``'s intervals in K
    chunks and return CI-bounded estimates (also under ``.sampled``).

    ``backend`` names a :mod:`repro.experiments.backends` backend
    (default: ``$REPRO_BACKEND`` or ``process``); ``jobs`` caps in-flight
    workers (default: one per slice).  ``checkpoint_store`` plus a stable
    ``trace_key`` (default: ``source.identity()``) persist boundary/chunk
    states across runs.  Exact mode ships every boundary state to its
    slice inside the task, so only the producer reads the store.

    ``telemetry`` observes the orchestrator: ``interval`` events with
    phases ``produce`` (a boundary state snapshotted) and ``end`` (a slice
    stitched).  Per-record hooks do not cross process boundaries, but a
    ``relay`` carries worker-side telemetry home: each slice streams its
    events into a per-worker shard under the relay directory, the
    orchestrator's own events land in an :data:`ORCHESTRATOR` shard, and a
    manifest names every expected file so
    :func:`~repro.telemetry.distributed.aggregate` can merge the fan-out
    into one Chrome trace with a lane per worker.  With ``$REPRO_STATUS``
    set, slices additionally heartbeat progress onto the status board
    (``status_label`` prefixes their entries).
    """
    # Deferred: repro.experiments.backends is cycle-free, but importing it
    # at module scope would initialize repro.experiments while
    # repro.sampling is still mid-import.
    from repro.experiments.backends import resolve_backend

    if plan is None:
        plan = ParallelPlan()
    chosen = resolve_backend(backend)
    board = StatusBoard.from_env()
    label = status_label or "parallel"
    # With a relay but no caller telemetry, the orchestrator still records
    # its produce/stitch markers so the merged trace has a pid-0 lane.
    if relay is not None and telemetry is None:
        telemetry = _Telemetry(tracer=_Tracer())
    if trace_key is None and checkpoint_store is not None:
        trace_key = source.identity()
    mode = "sampled" if sampling is not None else "exact"
    states: dict[int, dict] = {}
    produced = loaded = saved = 0
    produce_seconds = 0.0
    trace = source.open()
    close = getattr(trace, "close", None)
    try:
        total = len(trace)
        if not total:
            raise ValueError("cannot parallel-simulate an empty trace")
        if sampling is not None:
            intervals = sampling.intervals(total)
            if not intervals:
                raise ValueError(
                    f"trace of {total} records is shorter than one "
                    f"warmup+interval footprint of the sampling plan"
                )
            chunks = [tuple(intervals[s.start:s.stop])
                      for s in plan_slices(len(intervals), plan.intervals)]
        else:
            slices = plan_slices(total, plan.intervals)
            chunks = [(s,) for s in slices]
            if board is not None and len(slices) > 1:
                board.beat(label, "warming", done=0, total=total)
            produce_started = time.perf_counter()
            states, produced, loaded, saved = _produce_checkpoints(
                trace, slices,
                Simulator(config=config, timing=timing,
                          engine_mode=engine_mode),
                checkpoint_store, trace_key, telemetry,
            )
            produce_seconds = time.perf_counter() - produce_started
    finally:
        if close is not None:
            close()

    chunk_store = sampling is not None and checkpoint_store is not None
    tasks = [
        _SliceTask(
            source=source, config=config, timing=timing, index=i, mode=mode,
            intervals=chunk, state=states.get(chunk[0].start),
            checkpoint_dir=(str(checkpoint_store.directory)
                            if chunk_store else None),
            trace_key=trace_key,
            plan_key=(_sampled_key(plan, sampling)
                      if sampling is not None else None),
            engine_mode=engine_mode, is_last=(i == len(chunks) - 1),
            relay_dir=str(relay.directory) if relay is not None else None,
            relay_run=relay.run_id if relay is not None else "run",
            status_label=f"{label}/s{i}" if status_label else "",
        )
        for i, chunk in enumerate(chunks)
    ]
    workers = len(tasks) if jobs is None else max(1, jobs)
    sweep_labels = [t.status_label for t in tasks if t.status_label]
    sweep_labels.append(label)
    with shutdown_sweep(board, sweep_labels):
        outcomes = chosen.map(_run_slice, tasks, workers)
    outcomes.sort(key=lambda o: o.index)
    if board is not None:
        board.beat(label, "stitching", done=total, total=total)
    if telemetry is not None:
        for outcome in outcomes:
            telemetry.on_interval(0.0, outcome.index, outcome.stop, "end")
    if relay is not None:
        shard = relay.shard_path(ORCHESTRATOR, 0)
        if telemetry is not None and telemetry.tracer is not None:
            telemetry.tracer.write_jsonl(shard)
        else:
            shard.write_text("")
        expected = [relay.shard_path(f"w{t.index}", t.index).name
                    for t in tasks]
        expected.append(shard.name)
        relay.write_manifest(expected)
    REGISTRY.counter(
        "repro_parallel_runs_total",
        "checkpoint-parallel runs by mode and backend",
        ("mode", "backend"),
    ).inc(mode=mode, backend=chosen.name)
    if produced:
        REGISTRY.counter(
            "repro_parallel_produced_records_total",
            "records the checkpoint producer stepped in detail",
        ).inc(produced)
    slice_seconds = REGISTRY.histogram(
        "repro_parallel_slice_seconds",
        "per-slice worker CPU seconds",
    )
    for outcome in outcomes:
        slice_seconds.observe(outcome.seconds)

    loaded += sum(o.checkpoints_loaded for o in outcomes)
    saved += sum(o.checkpoints_saved for o in outcomes)
    final = outcomes[-1].final
    sampled = None
    if sampling is None:
        # The last slice's finished result is the serial result (its
        # loaded state carried the cumulative counters of every earlier
        # record), so bit-identity needs no float re-assembly.
        result = final
        cpi, cpi_ci = final.cpi, 0.0
        bad_fraction, bad_ci = final.bad_outcome_fraction, 0.0
    else:
        sampled = _estimate(
            final, sampling, total,
            [m for o in outcomes for m in o.measurements],
            detailed_records=sum(o.detailed_records for o in outcomes),
            checkpoints_loaded=loaded, checkpoints_saved=saved,
        )
        result = sampled.result
        cpi, cpi_ci = sampled.cpi, sampled.cpi_ci
        bad_fraction = sampled.bad_outcome_fraction
        bad_ci = sampled.bad_outcome_ci
    return ParallelResult(
        config_name=final.config_name, plan=plan, mode=mode,
        backend=chosen.name, total_records=total, outcomes=outcomes,
        result=result, cpi=cpi, cpi_ci=cpi_ci,
        bad_outcome_fraction=bad_fraction, bad_outcome_ci=bad_ci,
        produced_records=produced,
        checkpoints_loaded=loaded, checkpoints_saved=saved,
        sampled=sampled, produce_seconds=produce_seconds,
    )


def stitch_deltas(outcomes: list[SliceOutcome]) -> dict:
    """Sum the per-slice counter deltas into one whole-trace delta.

    With exact lineage the integer fields equal the final counters of the
    last slice (the sums telescope); float cycles may differ from the
    final clock by associativity only.  Exposed for tests and the
    conformance gate.
    """
    merged: dict = {}
    for outcome in outcomes:
        for measurement in outcome.measurements:
            for key, value in measurement.delta.items():
                if isinstance(value, dict):
                    bucket = merged.setdefault(key, {})
                    for name, amount in value.items():
                        bucket[name] = bucket.get(name, 0) + amount
                else:
                    merged[key] = merged.get(key, 0) + value
    return merged
