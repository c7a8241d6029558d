"""Telemetry: structured tracing, time-series sampling, branch profiles.

``repro.telemetry`` is the observability counterpart to ``repro.audit``:
where the auditor answers "is the model's state *legal*?", telemetry
answers "what is the model *doing*, and when?".  The run-end aggregates of
:class:`repro.metrics.counters.SimCounters` reproduce the paper's
evaluation, but they cannot show when BTB1 occupancy saturated, how long a
bulk-preload burst took from perceived miss to last transfer, or which
static branches account for the capacity-miss tail the BTB2 attacks —
per-event timing and per-branch attribution carry that insight (cf. the
timing-information and hard-to-predict-branch characterization lines of
work in PAPERS.md).

Three pillars, each independently optional, multiplexed by one
:class:`Telemetry` hub:

* **Tracing** (:class:`Tracer`) — typed lifecycle events with
  simulated-cycle timestamps (fetch, lookups, surprise classification,
  perceived misses, tracker lifecycle, BTB2 search/transfer, installs,
  resteers), streamed/written as JSONL and exportable as a Chrome
  ``trace_event`` file so a preload burst renders as nested spans in
  Perfetto.  The event schema lives in :mod:`repro.telemetry.events`.
* **Sampling** (:class:`Sampler`) — every N cycles, a columnar snapshot
  of occupancy, rolling hit/accuracy rates, tracker-file pressure and
  transfer-bus utilization; CSV export plus the ``repro timeline`` ASCII
  chart.
* **Profiling** (:class:`BranchProfiler`) — per-static-branch outcome and
  penalty attribution, rendered as the ``repro profile`` top-K
  worst-offenders report.

Wiring follows the auditor pattern byte for byte: instrumented components
hold a ``telemetry`` attribute that defaults to ``None`` and every hook
site is a single attribute test, so the subsystem is zero-cost when off —
results are identical with telemetry on or off (pinned by
``tests/telemetry/test_offpath.py``).

Usage::

    from repro.telemetry import Telemetry
    from repro.engine.simulator import Simulator

    telemetry = Telemetry.full(sample_interval=2048)
    Simulator(config, telemetry=telemetry).run(trace)
    telemetry.tracer.write_jsonl("events.jsonl")
    telemetry.tracer.write_chrome_trace("trace.json")
    telemetry.sampler.write_csv("timeline.csv")
    print(telemetry.profiler.render(k=10))

Host-side wall-time phase timers (:mod:`repro.telemetry.timers`) are the
fourth, simulation-independent piece: ``run_all`` times each report phase
and folds the result into the experiment pool's session summary.

Three distributed pieces extend the pillars across process boundaries
(docs/OBSERVABILITY.md):

* **Relay** (:class:`TelemetryRelay` / :func:`aggregate`,
  :mod:`repro.telemetry.distributed`) — workers stream their events into
  per-worker JSONL shards; the orchestrator merges them into one Chrome
  trace with a pid lane per worker.
* **Metrics** (:class:`MetricsRegistry` / :data:`REGISTRY`,
  :mod:`repro.telemetry.metrics`) — typed counters/gauges/histograms,
  mergeable across workers, exported as Prometheus text or JSON
  snapshots.
* **Monitor** (:class:`StatusBoard`, :mod:`repro.telemetry.monitor`) —
  a shared heartbeat file behind ``repro top`` and ``run_all
  --progress``.
"""

from repro.telemetry.distributed import (
    RELAY_ENV,
    AggregateResult,
    TelemetryRelay,
    WorkerSession,
    aggregate,
)
from repro.telemetry.events import (
    EVENT_SCHEMA,
    EventKind,
    validate_event,
    validate_events,
    validate_jsonl,
)
from repro.telemetry.hub import Telemetry
from repro.telemetry.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus,
    validate_snapshot,
)
from repro.telemetry.monitor import (
    STATUS_ENV,
    BoardState,
    StatusBoard,
    read_board,
    render_status,
    render_summary,
)
from repro.telemetry.profiler import BranchProfile, BranchProfiler
from repro.telemetry.sampler import COLUMNS, Sampler, render_timeline, sparkline
from repro.telemetry.timers import phase_timer
from repro.telemetry.tracer import Tracer

__all__ = [
    "COLUMNS",
    "EVENT_SCHEMA",
    "REGISTRY",
    "RELAY_ENV",
    "STATUS_ENV",
    "AggregateResult",
    "BoardState",
    "BranchProfile",
    "BranchProfiler",
    "Counter",
    "EventKind",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Sampler",
    "StatusBoard",
    "Telemetry",
    "TelemetryRelay",
    "Tracer",
    "WorkerSession",
    "aggregate",
    "parse_prometheus",
    "phase_timer",
    "read_board",
    "render_status",
    "render_summary",
    "render_timeline",
    "sparkline",
    "validate_event",
    "validate_events",
    "validate_jsonl",
    "validate_snapshot",
]
