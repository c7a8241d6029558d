"""Cross-process telemetry: per-worker relay shards and the aggregator.

PR 3's telemetry pillars are strictly per-process, so worker-side spans
and metrics vanished the moment simulation fanned out over
:class:`~repro.experiments.backends.ProcessBackend` or
:func:`~repro.sampling.parallel.run_parallel`.  This module carries them
home:

* A :class:`TelemetryRelay` names a shared directory where each worker
  writes its telemetry as it happens: one JSONL **event shard** per
  (run, worker, slice) — the same schema-valid line format
  :meth:`~repro.telemetry.tracer.Tracer.write_jsonl` produces, streamed so
  a crashed worker still leaves a readable prefix — plus one JSON
  **metrics snapshot** (:mod:`repro.telemetry.metrics`) written at session
  close.  Workers open a session via :meth:`TelemetryRelay.worker_session`
  (explicitly, or from the ``REPRO_RELAY`` environment variable that
  pool workers inherit).
* :func:`aggregate` merges every shard in the directory into one
  coherent picture: a Chrome ``trace_event`` timeline with one **pid lane
  per worker** (orchestrator on pid 0, workers on pid 1..N, tracker tids
  preserved within each lane), a merged JSONL stream annotated with the
  producing worker, and one merged :class:`MetricsRegistry` whose totals
  equal the serial run's.  Reading is tolerant, mirroring
  ``CheckpointStore.skipped``: a truncated or corrupt shard line (a
  crashed worker mid-write) is skipped and reported on the
  :attr:`AggregateResult.skipped` ledger, never raised.

Timestamps inside a lane are stable-sorted before export: BTB2 row events
carry scheduled *future* cycles (the hub's ``now`` watermark is a max for
that reason), so raw emission order is not globally monotone.  The sort is
stable and metadata-first, which keeps every ``B``/``E`` span pair balanced
— span events are stamped with the monotone decode clock.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any

from repro.atomic import publish
from repro.telemetry.events import validate_event
from repro.telemetry.hub import Telemetry
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import Tracer

#: Environment variable naming the relay directory.  Set by the
#: orchestrator before fanning out; pool workers inherit it and open
#: their sessions from :meth:`TelemetryRelay.from_env`.
RELAY_ENV = "REPRO_RELAY"

#: Version of the relay directory layout (manifest + shard naming).
RELAY_SCHEMA = 1

#: The orchestrator's own lane name (always pid 0 in the merged trace).
ORCHESTRATOR = "orchestrator"

_UNSAFE = re.compile(r"[^A-Za-z0-9_.]+")


def _safe(name: str) -> str:
    """A filesystem- and parse-safe token for worker/run names."""
    return _UNSAFE.sub("_", name) or "anon"


@dataclass(frozen=True)
class ShardInfo:
    """One relay shard as the aggregator placed it in the merged trace."""

    file: str
    worker: str
    slice: int
    #: Merged-trace process lane (0 = orchestrator).
    pid: int
    #: Schema-valid events read from the shard.
    events: int


class WorkerSession:
    """One worker's open relay session: a streamed tracer plus metrics.

    ``telemetry`` is a hub whose tracer streams every event to the shard
    file as it is emitted (buffer disabled — a worker must not hold a
    million events in memory); ``registry`` collects this worker's
    metrics and is written as a JSON snapshot at :meth:`close`.
    """

    def __init__(self, relay: "TelemetryRelay", worker: str,
                 slice_index: int) -> None:
        self.relay = relay
        self.worker = _safe(worker)
        self.slice_index = slice_index
        self._path = relay.shard_path(worker, slice_index)
        self._stream: IO[str] | None = self._path.open("w", buffering=1)
        #: Buffer disabled (limit=0): the stream receives every event.
        self.telemetry = Telemetry(tracer=Tracer(stream=self._stream,
                                                 limit=0))
        self.registry = MetricsRegistry()

    def close(self) -> None:
        """Flush and close the shard; publish the metrics snapshot."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None
        if self.registry.names():
            target = self.relay.metrics_path(self.worker, self.slice_index)
            with publish(target) as scratch:
                scratch.write_text(
                    json.dumps(self.registry.snapshot()) + "\n")

    def __enter__(self) -> "WorkerSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TelemetryRelay:
    """A shared directory where distributed-run telemetry accumulates."""

    def __init__(self, directory, run_id: str = "run") -> None:
        self.directory = Path(directory)
        self.run_id = _safe(run_id)
        self.directory.mkdir(parents=True, exist_ok=True)

    @classmethod
    def from_env(cls) -> "TelemetryRelay | None":
        """The relay named by ``$REPRO_RELAY``, or ``None`` when unset.

        The run id comes from the directory's manifest when the
        orchestrator wrote one; otherwise the default.
        """
        directory = os.environ.get(RELAY_ENV, "").strip()
        if not directory:
            return None
        manifest = read_manifest(Path(directory))
        run_id = manifest.get("run", "run") if manifest else "run"
        return cls(directory, run_id=run_id)

    def activate(self) -> None:
        """Export this relay's directory as ``$REPRO_RELAY``.

        Subsequently spawned worker processes (which inherit the
        environment) open their sessions against it automatically.
        """
        os.environ[RELAY_ENV] = str(self.directory)

    def shard_path(self, worker: str, slice_index: int) -> Path:
        """The event-shard file for one (run, worker, slice)."""
        return self.directory / (
            f"shard-{self.run_id}-{_safe(worker)}-s{slice_index:04d}.jsonl"
        )

    def metrics_path(self, worker: str, slice_index: int) -> Path:
        """The metrics-snapshot file for one (run, worker, slice)."""
        return self.directory / (
            f"metrics-{self.run_id}-{_safe(worker)}-s{slice_index:04d}.json"
        )

    def worker_session(self, worker: str, slice_index: int) -> WorkerSession:
        """Open this worker's streamed telemetry session."""
        return WorkerSession(self, worker, slice_index)

    def write_manifest(self, shards: list[str]) -> Path:
        """Record the shard files a complete run is expected to leave.

        The aggregator reports any listed-but-absent shard under
        ``missing`` so a silently dead worker cannot pass for a complete
        merge.  Written atomically (last writer wins).
        """
        payload = {"relay_schema": RELAY_SCHEMA, "run": self.run_id,
                   "expected": sorted(shards)}
        target = self.directory / "manifest.json"
        with publish(target) as scratch:
            scratch.write_text(json.dumps(payload, indent=1) + "\n")
        return target


def read_manifest(directory: Path) -> dict | None:
    """The relay manifest, or ``None`` when absent/unreadable."""
    try:
        payload = json.loads((Path(directory) / "manifest.json").read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    return payload


def read_shard(path: Path) -> tuple[list[dict], list[tuple[Path, str]]]:
    """Events of one shard file, tolerantly.

    Returns ``(events, skipped)``: schema-valid events in emission order,
    plus a ``(path, reason)`` ledger entry per unreadable or invalid line
    — the same skip-and-report contract as ``CheckpointStore.skipped``.
    A truncated final line (crashed worker mid-write) degrades to a
    ledger entry, never an error.
    """
    skipped: list[tuple[Path, str]] = []
    try:
        text = path.read_text()
    except OSError as error:
        return [], [(path, f"unreadable: {error}")]
    events: list[dict] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except ValueError:
            skipped.append((path, f"line {number}: truncated/invalid JSON"))
            continue
        problems = validate_event(event)
        if problems:
            skipped.append((path, f"line {number}: {problems[0]}"))
            continue
        events.append(event)
    return events, skipped


def _parse_shard_name(name: str, run_id: str | None) -> tuple[str, int]:
    """``(worker, slice)`` parsed from one ``shard-*.jsonl`` filename."""
    stem = name[len("shard-"):-len(".jsonl")]
    if run_id and stem.startswith(f"{_safe(run_id)}-"):
        stem = stem[len(_safe(run_id)) + 1:]
    body, _, index = stem.rpartition("-s")
    try:
        return body or stem, int(index)
    except ValueError:
        return stem, 0


@dataclass
class AggregateResult:
    """Everything one :func:`aggregate` pass merged from a relay."""

    run_id: str | None
    shards: list[ShardInfo]
    #: Merged JSONL events, each annotated with its producing ``worker``.
    events: list[dict]
    #: Merged Chrome ``trace_event`` object (one pid lane per worker,
    #: top-level ``metadata`` accounting for every shard).
    trace: dict
    #: Merged metrics across every worker snapshot.
    registry: MetricsRegistry
    #: Skip-and-report ledger: (path, reason) per tolerated problem.
    skipped: list[tuple[Path, str]] = field(default_factory=list)
    #: Manifest-expected shard files that never appeared.
    missing: list[str] = field(default_factory=list)

    @property
    def workers(self) -> list[str]:
        """Distinct worker lane names, orchestrator first."""
        names: list[str] = []
        for shard in self.shards:
            if shard.worker not in names:
                names.append(shard.worker)
        return names

    def write_jsonl(self, path) -> int:
        """Write the merged, worker-annotated JSONL; returns the count."""
        path = Path(path)
        with path.open("w") as stream:
            for event in self.events:
                stream.write(json.dumps(event) + "\n")
        return len(self.events)

    def write_chrome(self, path) -> int:
        """Write the merged Chrome trace; returns the trace-event count."""
        Path(path).write_text(json.dumps(self.trace))
        return len(self.trace["traceEvents"])

    def describe(self) -> str:
        """One-line human description of the merge."""
        return (f"merged {len(self.shards)} shard(s) from "
                f"{len(self.workers)} worker lane(s): "
                f"{len(self.events):,} events, "
                f"{len(self.registry.names())} metric(s), "
                f"{len(self.skipped)} skipped, {len(self.missing)} missing")


def _lane_order(found: list[tuple[str, str, int]]) -> list[tuple[str, str, int]]:
    """Shard files ordered into lanes: orchestrator first, then by slice."""
    orchestrator = [f for f in found if f[1] == ORCHESTRATOR]
    workers = sorted((f for f in found if f[1] != ORCHESTRATOR),
                     key=lambda f: (f[2], f[1], f[0]))
    return orchestrator + workers


def aggregate(directory, run_id: str | None = None) -> AggregateResult:
    """Merge every shard under ``directory`` into one coherent picture.

    Lane assignment: the orchestrator shard (worker name
    :data:`ORCHESTRATOR`) keeps pid 0; worker shards get pid 1..N in
    slice order, each carrying its own core/tracker tid structure.  Events
    within each (pid, tid) lane are stable-sorted by timestamp
    (metadata first) so per-lane time is monotone — see the module
    docstring for why emission order is not.

    Reading is tolerant end to end: unreadable shards, truncated lines,
    schema-invalid events, and corrupt metrics snapshots all degrade to
    :attr:`AggregateResult.skipped` entries.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    if run_id is None and manifest:
        run_id = manifest.get("run")

    found = sorted(directory.glob("shard-*.jsonl"))
    parsed = []
    for path in found:
        worker, slice_index = _parse_shard_name(path.name, run_id)
        parsed.append((path.name, worker, slice_index))

    missing: list[str] = []
    if manifest and isinstance(manifest.get("expected"), list):
        present = {name for name, _, _ in parsed}
        missing = [name for name in manifest["expected"]
                   if isinstance(name, str) and name not in present]

    skipped: list[tuple[Path, str]] = []
    shards: list[ShardInfo] = []
    merged_events: list[dict] = []
    trace_events: list[dict] = []
    for pid, (name, worker, slice_index) in enumerate(_lane_order(parsed)):
        events, bad = read_shard(directory / name)
        skipped.extend(bad)
        lane = worker if worker == ORCHESTRATOR else f"{worker} (slice {slice_index})"
        tracer = Tracer()
        tracer.events = events
        chrome = tracer.to_chrome_trace(process_name=lane)
        for event in chrome["traceEvents"]:
            event["pid"] = pid
            trace_events.append(event)
        for event in events:
            merged_events.append({**event, "worker": worker})
        shards.append(ShardInfo(file=name, worker=worker,
                                slice=slice_index, pid=pid,
                                events=len(events)))

    # Stable per-lane time sort: metadata first, then ascending ts;
    # equal-ts events keep emission order so B/E pairs stay balanced.
    trace_events.sort(
        key=lambda e: (e.get("pid", 0), e.get("tid", 0),
                       0 if e.get("ph") == "M" else 1,
                       float(e.get("ts", 0.0)))
    )

    registry = MetricsRegistry()
    for path in sorted(directory.glob("metrics-*.json")):
        try:
            payload = json.loads(path.read_text())
            registry.merge_snapshot(payload)
        except (OSError, ValueError) as error:
            skipped.append((path, f"{type(error).__name__}: {error}"))

    trace: dict[str, Any] = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "metadata": {
            "relay_schema": RELAY_SCHEMA,
            "run": run_id,
            "workers": [s.worker for s in shards],
            "shards": [
                {"file": s.file, "worker": s.worker, "slice": s.slice,
                 "pid": s.pid, "events": s.events}
                for s in shards
            ],
            "missing": missing,
            "skipped": [[str(path), reason] for path, reason in skipped],
        },
    }
    return AggregateResult(run_id=run_id, shards=shards,
                           events=merged_events, trace=trace,
                           registry=registry, skipped=skipped,
                           missing=missing)
