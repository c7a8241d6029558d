"""Session multiplexing: many concurrent simulations, one worker pool.

A *session* is one long-lived simulation: a config + engine mode, the
architectural state the trace streamed so far has built, a bounded queue
of not-yet-simulated records, and the per-chunk reports clients poll.
The :class:`SessionManager` owns every session and a single *dispatcher*
coroutine that repeatedly gathers ready sessions, cuts at most
``chunk_records`` off each queue, and fans the chunks out through the
:class:`~repro.experiments.backends.Backend` seam — ``thread`` (default:
chunks mutate live in-memory simulators), ``serial``, or ``process``
(chunks ship ``state_dict`` blobs across the boundary and return the
advanced state, exactly the checkpoint lineage PR 4 proved exact).

Parity contract: a session advances its simulator with the same
:meth:`~repro.engine.simulator.Simulator.feed` the batch harness uses, and
suspend/resume round-trips state through
:class:`~repro.sampling.CheckpointStore` gzip-JSON snapshots — so the
counters a closed session reports are bit-identical to
:func:`repro.engine.simulator.simulate` over the same records, however
the stream was fragmented or interrupted.  ``tests/service`` pins this.

Concurrency model: every public coroutine runs on the daemon's event
loop; simulation work runs off-loop (executor thread -> backend).  A
session is in at most one in-flight chunk at a time, and the mutating
lifecycle operations (suspend/close) first wait for the queue to drain,
so the live simulator is never touched from two threads at once.
"""

from __future__ import annotations

import asyncio
import secrets
import time
from collections import deque
from dataclasses import dataclass, field

from repro.core.config import PredictorConfig, TABLE3_CONFIGS
from repro.engine.simulator import SimulationResult, Simulator
from repro.experiments.backends import Backend, resolve_backend
from repro.sampling import CheckpointStore
from repro.service.protocol import ServiceError, ServiceLimits
from repro.telemetry.metrics import MetricsRegistry
from repro.trace.record import TraceRecord

#: Table 3 configurations by their CLI key.
CONFIGS: dict[str, PredictorConfig] = {
    str(index + 1): config for index, config in enumerate(TABLE3_CONFIGS)
}

#: Checkpoint-store plan key under which session snapshots are filed
#: (distinct from sampling/parallel lineages sharing a store directory).
SESSION_PLAN_KEY = ("service-session",)


def _serialize_result(result: SimulationResult) -> dict:
    """A finished :class:`SimulationResult` as its JSON wire form."""
    return {
        "config": result.config_name,
        "cpi": result.cpi,
        "bad_outcome_fraction": result.counters.bad_outcome_fraction,
        "counters": result.counters.state_dict(),
        "search_stats": dict(result.search_stats),
        "btbp_stats": dict(result.btbp_stats),
        "btb2_stats": dict(result.btb2_stats),
        "preload_stats": dict(result.preload_stats),
        "icache_stats": dict(result.icache_stats),
    }


@dataclass
class _ChunkTask:
    """One dispatched unit: advance a session by a batch of records.

    Exactly one of ``sim`` (in-process backends: the live simulator,
    mutated in place) and ``state`` (process backend: the session's
    ``state_dict`` blob, ``None`` for a brand-new session) is meaningful;
    the other is ``None``.  Everything but ``sim`` pickles.
    """

    session_id: str
    config: PredictorConfig
    engine_mode: str
    records: list[TraceRecord]
    sim: Simulator | None = None
    state: dict | None = None


@dataclass
class _ChunkOutcome:
    """What one chunk execution produced (or the error it died on)."""

    session_id: str
    records: int = 0
    instructions: int = 0
    branches: int = 0
    bad_outcomes: int = 0
    cycles: float = 0.0
    seconds: float = 0.0
    #: Advanced state blob (process backend only; in-process chunks
    #: mutated the live simulator instead).
    state: dict | None = None
    error: str | None = None


def _session_simulator(config: PredictorConfig, engine_mode: str,
                       state: dict | None = None) -> Simulator:
    """A session's simulator, restored from ``state`` when one is given."""
    sim = Simulator(config=config, engine_mode=engine_mode)
    if state is not None:
        sim.load_state_dict(state)
    return sim


def _advance_chunk(task: _ChunkTask) -> _ChunkOutcome:
    """Worker body: feed one session's chunk; module-level so it pickles.

    ``Simulator.feed`` picks the engine from the session's engine mode;
    either engine is bit-identical to a whole-trace run.  Never raises: a
    failure comes back as ``error`` so one poisoned session cannot take
    down a batch of healthy ones.
    """
    started = time.perf_counter()
    try:
        sim = task.sim
        if sim is None:
            sim = _session_simulator(task.config, task.engine_mode, task.state)
        counters = sim.counters
        before = (counters.instructions, counters.branches,
                  counters.bad_outcomes, sim._cycle)
        sim.feed(task.records)
        return _ChunkOutcome(
            session_id=task.session_id,
            records=len(task.records),
            instructions=counters.instructions - before[0],
            branches=counters.branches - before[1],
            bad_outcomes=counters.bad_outcomes - before[2],
            cycles=sim._cycle - before[3],
            seconds=time.perf_counter() - started,
            state=sim.state_dict() if task.sim is None else None,
        )
    except Exception as problem:  # noqa: BLE001 - reported, not raised
        return _ChunkOutcome(
            session_id=task.session_id,
            records=len(task.records),
            seconds=time.perf_counter() - started,
            error=f"{type(problem).__name__}: {problem}",
        )


@dataclass
class Session:
    """One multiplexed simulation and its queue, reports, and metrics."""

    id: str
    config_key: str
    config: PredictorConfig
    engine_mode: str
    label: str = ""
    state: str = "active"
    error: str | None = None
    #: Live simulator (in-process backends, while active).
    sim: Simulator | None = None
    #: Latest advanced state blob (process backend, while active).
    state_blob: dict | None = None
    pending: deque = field(default_factory=deque)
    inflight: bool = False
    created: float = field(default_factory=time.time)
    last_activity: float = field(default_factory=time.monotonic)
    ingested: int = 0
    processed: int = 0
    chunks: int = 0
    suspends: int = 0
    resumes: int = 0
    evictions: int = 0
    instructions: int = 0
    branches: int = 0
    bad_outcomes: int = 0
    cycles: float = 0.0
    result: dict | None = None
    reports: deque = field(default_factory=deque)
    next_seq: int = 0
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    def __post_init__(self) -> None:
        """Create the loop-affine coordination events."""
        self._space = asyncio.Event()
        self._space.set()
        self._idle = asyncio.Event()
        self._idle.set()

    @property
    def idle(self) -> bool:
        """True when nothing is queued and nothing is in flight."""
        return not self.pending and not self.inflight

    def touch(self) -> None:
        """Record activity (defers idle eviction)."""
        self.last_activity = time.monotonic()

    def status(self) -> dict:
        """The session's JSON status document (chunk-boundary consistent)."""
        instructions = self.instructions
        return {
            "id": self.id,
            "label": self.label,
            "config": self.config_key,
            "config_name": self.config.name,
            "engine": self.engine_mode,
            "state": self.state,
            "error": self.error,
            "created": self.created,
            "ingested_records": self.ingested,
            "processed_records": self.processed,
            "pending_records": len(self.pending),
            "chunks": self.chunks,
            "suspends": self.suspends,
            "resumes": self.resumes,
            "instructions": instructions,
            "branches": self.branches,
            "bad_outcomes": self.bad_outcomes,
            "cycles": self.cycles,
            "cpi": (self.cycles / instructions) if instructions else 0.0,
        }


class SessionManager:
    """Owns every session plus the dispatcher multiplexing them.

    ``backend`` resolves through the standard registry; the ``process``
    backend switches chunk dispatch to state-shipping mode.  ``store`` is
    the suspend/resume spool (required for suspend, eviction, and
    graceful drain to do anything).  ``registry`` is the server-wide
    metrics registry the HTTP layer also records into.
    """

    def __init__(self, *, limits: ServiceLimits | None = None,
                 backend: "str | Backend | None" = "thread",
                 jobs: int = 4,
                 store: CheckpointStore | None = None,
                 store_max_entries: int | None = None,
                 registry: MetricsRegistry | None = None) -> None:
        self.limits = limits if limits is not None else ServiceLimits()
        self.backend = resolve_backend(backend)
        self.jobs = max(1, jobs)
        self.store = store
        self.store_max_entries = store_max_entries
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sessions: dict[str, Session] = {}
        self._ship_state = self.backend.name == "process"
        self._work = asyncio.Event()
        self._stopping = False
        self._dispatcher: asyncio.Task | None = None
        self._housekeeping: set[asyncio.Task] = set()

    # -- lifecycle operations (called from request handlers) ---------------

    def _model_fingerprint(self, session: Session) -> str:
        """The checkpoint model key of this session's config/timing."""
        if session.sim is not None:
            return session.sim.model_fingerprint()
        return _session_simulator(
            session.config, session.engine_mode).model_fingerprint()

    def get(self, session_id: str) -> Session:
        """The session for ``session_id``; typed 404 when unknown."""
        session = self.sessions.get(session_id)
        if session is None:
            raise ServiceError.unknown_session(session_id)
        return session

    def create(self, config_key: str = "2", engine_mode: str = "auto",
               label: str = "", session_id: str | None = None,
               resume: bool = False) -> Session:
        """Register a new session; returns it.

        ``session_id`` pins the identity instead of minting one —
        combined with ``resume=True`` it re-registers a session that a
        previous daemon suspended to the shared spool: the session is
        created directly in the ``suspended`` state (same config and
        engine mode required — the checkpoint key covers them) and a
        normal ``resume`` call reloads its state.
        """
        if self._stopping:
            raise ServiceError.draining()
        if len(self.sessions) >= self.limits.max_sessions:
            raise ServiceError.saturated(
                f"session table full ({self.limits.max_sessions})",
                retry_after=self.limits.sweep_interval,
            )
        config = CONFIGS.get(str(config_key))
        if config is None:
            raise ServiceError.bad_request(
                f"unknown config {config_key!r}; expected one of "
                f"{sorted(CONFIGS)}")
        from repro.engine.batched import ENGINE_MODES

        if engine_mode not in ENGINE_MODES:
            raise ServiceError.bad_request(
                f"unknown engine mode {engine_mode!r}; expected one of "
                f"{sorted(ENGINE_MODES)}")
        if resume and not session_id:
            raise ServiceError.bad_request(
                "resume-create needs the original session id")
        requested = str(session_id) if session_id else secrets.token_hex(8)
        if requested in self.sessions:
            raise ServiceError.invalid_state(
                f"session {requested} already exists")
        session = Session(
            id=requested,
            config_key=str(config_key),
            config=config,
            engine_mode=engine_mode,
            label=str(label or ""),
        )
        if resume:
            session.state = "suspended"
        elif not self._ship_state:
            session.sim = _session_simulator(config, engine_mode)
        session.reports = deque(maxlen=self.limits.reports_kept)
        self.sessions[session.id] = session
        self._count_sessions()
        return session

    def free_capacity(self, session: Session) -> int:
        """Ingest-queue records this session can still accept."""
        return max(0, self.limits.queue_records - len(session.pending))

    def retry_after(self, session: Session) -> float:
        """Suggested client backoff when ``session``'s queue is full."""
        mean = session.registry.histogram(
            "repro_session_chunk_seconds",
            "seconds per dispatched chunk",
        ).mean()
        pending_chunks = max(1, len(session.pending)
                             // self.limits.chunk_records)
        return round(max(0.05, min(30.0, mean * pending_chunks or 1.0)), 3)

    def _require_active(self, session: Session, operation: str) -> None:
        """Typed 409 unless ``session`` accepts ``operation`` right now."""
        if session.state != "active":
            detail = f" ({session.error})" if session.error else ""
            raise ServiceError.invalid_state(
                f"cannot {operation} session {session.id} in state "
                f"{session.state!r}{detail}")

    async def enqueue(self, session: Session, records: list[TraceRecord],
                      *, wait: bool) -> int:
        """Append ``records`` to the session's ingest queue.

        ``wait=False`` (one-shot ingest) is all-or-nothing: a typed 429
        with ``retry_after`` when the whole batch does not fit, so a
        retry never double-ingests.  ``wait=True`` (kept-open streaming
        ingest) blocks until the dispatcher makes room — the natural
        TCP backpressure for a live feed.  Returns the records accepted.

        A draining daemon refuses new records (typed 503), including
        from a kept-open stream that was mid-flight when shutdown began
        — otherwise a live feed could outrun the dispatcher's exit and
        deadlock the graceful drain.
        """
        if self._stopping:
            raise ServiceError.draining()
        self._require_active(session, "ingest into")
        if not records:
            return 0
        session.touch()
        ingested_counter = session.registry.counter(
            "repro_session_ingested_records_total",
            "trace records accepted into the ingest queue",
        )
        if not wait:
            if self.free_capacity(session) < len(records):
                self.registry.counter(
                    "repro_service_backpressure_total",
                    "ingest requests rejected for a full queue",
                ).inc()
                raise ServiceError.saturated(
                    f"session {session.id} ingest queue cannot take "
                    f"{len(records)} record(s) "
                    f"({self.free_capacity(session)} of "
                    f"{self.limits.queue_records} free)",
                    retry_after=self.retry_after(session),
                )
            session.pending.extend(records)
            session.ingested += len(records)
            ingested_counter.inc(len(records))
            session._idle.clear()
            self._work.set()
        else:
            position = 0
            while position < len(records):
                if self._stopping:
                    raise ServiceError.draining()
                free = self.free_capacity(session)
                if free <= 0:
                    session._space.clear()
                    await session._space.wait()
                    self._require_active(session, "ingest into")
                    continue
                batch = records[position:position + free]
                session.pending.extend(batch)
                position += len(batch)
                session.ingested += len(batch)
                ingested_counter.inc(len(batch))
                session._idle.clear()
                self._work.set()
        return len(records)

    def _dispatcher_alive(self) -> bool:
        """Whether the dispatcher task exists and is still running."""
        return self._dispatcher is not None and not self._dispatcher.done()

    async def _wait_drained(self, session: Session) -> None:
        """Block until the session has no queued or in-flight records.

        Fails fast (typed 500) instead of waiting forever when the
        dispatcher that would drain the queue is not running — e.g. a
        suspend racing the final phase of a graceful shutdown.
        """
        while not session.idle:
            if not self._dispatcher_alive():
                raise ServiceError.internal(
                    f"cannot drain session {session.id}: "
                    f"the dispatcher is not running")
            dispatcher = self._dispatcher
            session._idle.clear()
            self._work.set()
            waiter = asyncio.ensure_future(session._idle.wait())
            done, _ = await asyncio.wait(
                {waiter, dispatcher}, return_when=asyncio.FIRST_COMPLETED)
            if waiter not in done:
                waiter.cancel()

    async def _snapshot_state(self, session: Session) -> dict:
        """The session's current ``state_dict`` (off-loop when live)."""
        if session.sim is not None:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, session.sim.state_dict)
        if session.state_blob is not None:
            return session.state_blob
        # Never advanced: snapshot a fresh simulator's initial state.
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None,
            lambda: _session_simulator(
                session.config, session.engine_mode).state_dict(),
        )

    async def suspend(self, session: Session, *,
                      evicted: bool = False) -> dict:
        """Drain, snapshot to the checkpoint spool, and release memory."""
        self._require_active(session, "suspend")
        if self.store is None:
            raise ServiceError.invalid_state(
                "daemon has no checkpoint spool; suspend is unavailable")
        session.state = "suspending"
        try:
            await self._wait_drained(session)
            if session.error:
                raise ServiceError.invalid_state(
                    f"session {session.id} failed while draining: "
                    f"{session.error}")
            state = await self._snapshot_state(session)
            loop = asyncio.get_running_loop()
            path = await loop.run_in_executor(
                None,
                lambda: self.store.save(
                    self._model_fingerprint(session),
                    f"session:{session.id}", SESSION_PLAN_KEY, 0, state),
            )
        except ServiceError:
            session.state = "failed" if session.error else "active"
            raise
        except Exception as problem:  # noqa: BLE001 - typed to the client
            session.state = "active"
            raise ServiceError.internal(
                f"suspend failed: {type(problem).__name__}: {problem}"
            ) from problem
        session.sim = None
        session.state_blob = None
        session.state = "suspended"
        session.suspends += 1
        session.touch()
        if evicted:
            session.evictions += 1
        session.registry.counter(
            "repro_session_suspends_total",
            "suspend cycles by trigger",
            ("trigger",),
        ).inc(trigger="evicted" if evicted else "requested")
        self.registry.counter(
            "repro_service_suspends_total",
            "session suspends by trigger",
            ("trigger",),
        ).inc(trigger="evicted" if evicted else "requested")
        self._count_sessions()
        return {"checkpoint": str(path)}

    async def resume(self, session: Session) -> None:
        """Reload a suspended session's state from the spool."""
        if session.state != "suspended":
            raise ServiceError.invalid_state(
                f"cannot resume session {session.id} in state "
                f"{session.state!r} (suspend it first)")
        loop = asyncio.get_running_loop()
        sim = await loop.run_in_executor(
            None, _session_simulator, session.config, session.engine_mode)
        state = await loop.run_in_executor(
            None,
            lambda: self.store.load(
                sim.model_fingerprint(),
                f"session:{session.id}", SESSION_PLAN_KEY, 0),
        ) if self.store is not None else None
        if state is None:
            raise ServiceError.invalid_state(
                f"session {session.id} has no readable checkpoint in the "
                f"spool (pruned, cleared, or corrupt)")

        # Both paths refuse a stale or foreign state here, at resume: the
        # process backend only ships the blob, so it checks it up front.
        try:
            if self._ship_state:
                sim.check_state(state)
                session.state_blob = state
            else:
                await loop.run_in_executor(None, sim.load_state_dict, state)
                session.sim = sim
        except ValueError as problem:
            raise ServiceError.invalid_state(
                f"checkpoint rejected on load: {problem}") from problem
        session.state = "active"
        session.resumes += 1
        session.touch()
        self._count_sessions()
        if session.pending:
            self._work.set()

    async def close(self, session: Session) -> dict:
        """Drain, finish the simulation, and store the final result."""
        if session.state == "suspended":
            await self.resume(session)
        self._require_active(session, "close")
        session.state = "closing"
        try:
            await self._wait_drained(session)
            if session.error:
                raise ServiceError.invalid_state(
                    f"session {session.id} failed while draining: "
                    f"{session.error}")
            loop = asyncio.get_running_loop()

            def _finish() -> SimulationResult:
                sim = session.sim
                if sim is None:
                    sim = _session_simulator(session.config,
                                             session.engine_mode,
                                             session.state_blob)
                return sim.finish()

            result = await loop.run_in_executor(None, _finish)
        except ServiceError:
            session.state = "failed" if session.error else "active"
            raise
        except Exception as problem:  # noqa: BLE001 - typed to the client
            session.state = "failed"
            session.error = f"{type(problem).__name__}: {problem}"
            self._count_sessions()
            raise ServiceError.internal(
                f"close failed: {session.error}") from problem
        session.result = _serialize_result(result)
        session.sim = None
        session.state_blob = None
        session.state = "closed"
        session.touch()
        self._count_sessions()
        return session.result

    def delete(self, session_id: str) -> None:
        """Forget a session in any state; drop its spool entry if present."""
        session = self.get(session_id)
        del self.sessions[session_id]
        session.state = "closed"
        session._space.set()
        session._idle.set()
        if self.store is not None:
            path = self.store.path_for(
                self._model_fingerprint(session),
                f"session:{session.id}", SESSION_PLAN_KEY, 0)
            try:
                path.unlink()
            except OSError:
                pass
        self._count_sessions()

    def poll_reports(self, session: Session, since: int = 0) -> dict:
        """Per-chunk reports with ``seq > since`` (the polling stream)."""
        reports = [r for r in session.reports if r["seq"] > since]
        return {"reports": reports, "next": session.next_seq}

    # -- the dispatcher ----------------------------------------------------

    def _has_work(self) -> bool:
        """Whether any session has queued records and a free lane."""
        return any(
            s.state in ("active", "suspending", "closing")
            and s.pending and not s.inflight
            for s in self.sessions.values()
        )

    def _gather_tasks(self) -> list[tuple[Session, _ChunkTask]]:
        """Cut one chunk off every ready session (round-robin fairness)."""
        gathered = []
        for session in self.sessions.values():
            if session.inflight or not session.pending:
                continue
            if session.state not in ("active", "suspending", "closing"):
                continue
            take = min(len(session.pending), self.limits.chunk_records)
            records = [session.pending.popleft() for _ in range(take)]
            session.inflight = True
            task = _ChunkTask(
                session_id=session.id,
                config=session.config,
                engine_mode=session.engine_mode,
                records=records,
            )
            if self._ship_state:
                task.state = session.state_blob
            else:
                task.sim = session.sim
            gathered.append((session, task))
        return gathered

    def _apply(self, session: Session, outcome: _ChunkOutcome) -> None:
        """Fold one finished chunk back into its session."""
        session.inflight = False
        session._space.set()
        if session.idle:
            session._idle.set()
        if outcome.error is not None:
            session.state = "failed"
            session.error = outcome.error
            session.pending.clear()
            session._space.set()
            session._idle.set()
            self.registry.counter(
                "repro_service_session_failures_total",
                "sessions driven to the failed state by a chunk error",
            ).inc()
            self._count_sessions()
            return
        if outcome.state is not None:
            session.state_blob = outcome.state
        session.processed += outcome.records
        session.chunks += 1
        session.instructions += outcome.instructions
        session.branches += outcome.branches
        session.bad_outcomes += outcome.bad_outcomes
        session.cycles += outcome.cycles
        session.touch()
        seq = session.next_seq = session.next_seq + 1
        session.reports.append({
            "seq": seq,
            "records": outcome.records,
            "instructions": outcome.instructions,
            "branches": outcome.branches,
            "bad_outcomes": outcome.bad_outcomes,
            "cycles": outcome.cycles,
            "cpi": (session.cycles / session.instructions
                    if session.instructions else 0.0),
        })
        session.registry.counter(
            "repro_session_processed_records_total",
            "trace records advanced through the engine",
        ).inc(outcome.records)
        session.registry.counter(
            "repro_session_chunks_total", "chunks dispatched",
        ).inc()
        session.registry.histogram(
            "repro_session_chunk_seconds", "seconds per dispatched chunk",
        ).observe(outcome.seconds)
        self.registry.counter(
            "repro_service_records_total",
            "trace records simulated across all sessions",
        ).inc(outcome.records)
        self.registry.counter(
            "repro_service_chunks_total",
            "chunks dispatched across all sessions",
        ).inc()
        self.registry.histogram(
            "repro_service_chunk_seconds",
            "seconds per dispatched chunk",
        ).observe(outcome.seconds)

    async def _dispatch_once(self) -> int:
        """Run one fan-out round; returns the number of chunks executed."""
        gathered = self._gather_tasks()
        if not gathered:
            return 0
        tasks = [task for _, task in gathered]
        loop = asyncio.get_running_loop()
        outcomes = await loop.run_in_executor(
            None, lambda: self.backend.map(_advance_chunk, tasks, self.jobs))
        by_session = {session.id: session for session, _ in gathered}
        for outcome in outcomes:
            session = by_session.get(outcome.session_id)
            if session is not None and session.id in self.sessions:
                self._apply(session, outcome)
        return len(outcomes)

    def _sweep(self) -> None:
        """Housekeeping: evict idle sessions, prune the spool."""
        if self.store is None or self._stopping:
            return
        now = time.monotonic()
        for session in list(self.sessions.values()):
            if (session.state == "active" and session.idle
                    and now - session.last_activity
                    > self.limits.idle_timeout):
                task = asyncio.get_running_loop().create_task(
                    self._evict(session))
                self._housekeeping.add(task)
                task.add_done_callback(self._housekeeping.discard)
        if self.store_max_entries is not None:
            self.store.prune(max_entries=self.store_max_entries)

    async def _evict(self, session: Session) -> None:
        """Suspend one idle session; a losing race is not an error."""
        try:
            await self.suspend(session, evicted=True)
            self.registry.counter(
                "repro_service_evictions_total",
                "idle sessions suspended to the spool",
            ).inc()
        except ServiceError:
            pass

    def _count_sessions(self) -> None:
        """Refresh the per-state session gauge."""
        gauge = self.registry.gauge(
            "repro_service_sessions", "registered sessions by state",
            ("state",),
        )
        counts: dict[str, int] = {state: 0 for state in
                                  ("active", "suspending", "suspended",
                                   "closing", "closed", "failed")}
        for session in self.sessions.values():
            counts[session.state] = counts.get(session.state, 0) + 1
        for state, count in counts.items():
            gauge.set(count, state=state)

    async def run(self) -> None:
        """The dispatcher loop; runs until :meth:`stop` drains it."""
        while True:
            if not self._has_work():
                if self._stopping:
                    return
                try:
                    await asyncio.wait_for(
                        self._work.wait(),
                        timeout=self.limits.sweep_interval)
                except (asyncio.TimeoutError, TimeoutError):
                    pass
                self._work.clear()
                if not self._has_work():
                    self._sweep()
                    continue
            await self._dispatch_once()

    def start(self) -> None:
        """Spawn the dispatcher task on the running loop."""
        if self._dispatcher is None or self._dispatcher.done():
            self._dispatcher = asyncio.get_running_loop().create_task(
                self.run())

    async def stop(self, *, drain: bool = True) -> None:
        """Graceful shutdown: drain queues, suspend live sessions.

        With ``drain`` every queued record is simulated first, then every
        active session with a spool is suspended — its state survives the
        daemon and a later ``resume`` continues exactly where the stream
        stopped.  Without ``drain`` the dispatcher is cancelled and
        in-memory state is dropped.
        """
        self._stopping = True
        self._work.set()
        if self._dispatcher is not None:
            if drain:
                await self._dispatcher
            else:
                self._dispatcher.cancel()
                try:
                    await self._dispatcher
                except asyncio.CancelledError:
                    pass
            self._dispatcher = None
        for task in list(self._housekeeping):
            task.cancel()
        if drain:
            # A kept-open stream already past the draining gate can have
            # queued records in the window where the dispatcher saw an
            # empty table and exited; flush them here.  The gate rejects
            # anything newer, so this converges.
            while self._has_work():
                await self._dispatch_once()
            if self.store is not None:
                for session in list(self.sessions.values()):
                    if session.state == "active":
                        try:
                            await self.suspend(session)
                        except ServiceError:
                            pass
