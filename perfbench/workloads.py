"""The three benchmark workloads: set-up, timed ops and output checks.

Every workload runs through the public APIs of ``repro.experiments``,
``repro.sampling`` and ``repro.service``.  Traces come from a child
process (``gen_trace.py``), so the process that runs the ops never holds
the generator's garbage.

Ops record wall-time windows; the metrics price them at the end with a
:class:`~hostclock.HostClock`, in reference seconds, so host drift does not
read as a code change.  Every timed metric is a sum over every window of
the run or a percentile over all of them; see ``README.md``.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import re
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
from hostclock import HostClock
from seeds import DEFAULT_SEED, TRACES, seeded_spec
from stats import Ledger, digest, metric, rate, tail, wall_seconds

from repro import experiments, sampling
from repro.core.config import ZEC12_CONFIG_2
from repro.experiments.common import RESULTS_CACHE_ENV, trace_identity
from repro.service import ServiceClient, ServiceError, ServiceUnavailable
from repro.telemetry.metrics import parse_prometheus
from repro.trace.reader import load_trace, open_trace

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Result-cache hits timed after each ``detail-btb2`` op (its rerun pass).
RESULT_HITS = 4000
#: Records per service ingest, the daemon's default dispatch chunk.
CHUNK_RECORDS = 4096
#: Concurrent service sessions: one per vCPU of a 2-vCPU host.
SESSIONS = 2
#: Seconds between two status polls of a session waiting on its chunk.
POLL_S = 0.01
#: A chunk not processed within this many seconds fails its op.
CHUNK_TIMEOUT_S = 60.0

_perf = time.perf_counter


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# -- output digests ------------------------------------------------------------


def run_digest(run) -> str:
    """Digest of a ``run_workload`` result: its counters and CPI."""
    return digest({"cpi": run.cpi, "instructions": run.instructions,
                   "branches": run.branches,
                   "outcome_fractions": run.outcome_fractions,
                   "preload_stats": run.preload_stats})


def sampled_digest(sampled) -> str:
    """Digest of a sampled run's estimates and extrapolated counters."""
    return digest({"cpi": sampled.cpi, "cpi_ci": sampled.cpi_ci,
                   "bad": sampled.bad_outcome_fraction,
                   "bad_ci": sampled.bad_outcome_ci,
                   "measured": sampled.measured_instructions,
                   "counters": sampled.result.counters.state_dict()})


def session_digest(result: dict) -> str:
    """Digest of a closed service session's counters and CPI."""
    return digest({"cpi": result["cpi"], "counters": result["counters"]})


# -- one benchmark run -----------------------------------------------------------


@dataclass
class Windows:
    """Wall-time windows a batch workload's ops recorded.

    ``first`` and ``rerun`` hold ``(records, start, end)`` per pass; ``ops``
    holds each op's timed ``(start, end)`` segments.
    """

    first: list = field(default_factory=list)
    rerun: list = field(default_factory=list)
    ops: list = field(default_factory=list)


class Run:
    """One invocation: arguments, clocks, scratch space, ledger and results."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 traced: bool, work: Path, clock: HostClock,
                 daemon_cpu: int) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.work = work
        self.clock = clock
        self.daemon_cpu = daemon_cpu
        self.spec = seeded_spec(workload, seed)
        self.scale = TRACES[workload][1]
        pinned = None
        if seed == DEFAULT_SEED:
            pinned = json.loads(PINS.read_text()).get(workload)
        self.ledger = Ledger(pinned)
        if seed == DEFAULT_SEED and pinned is None:
            self.ledger.fail(f"no pinned digest for {workload} in {PINS.name}")
        self.recorder = layers.Recorder() if traced else None
        self.setup_windows: list[tuple[int, float, float]] = []
        self.traces: list[dict] = []
        self.metrics: dict[str, dict] = {}
        self.layer_values: dict[str, float] = {}
        self.notes: list[str] = []
        self.consistent = True
        self.ckpt_skipped = 0
        self.lock = threading.Lock()

    def child_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path.cwd() / "src")
        return env

    def gen_trace(self, rep: int) -> dict:
        """Generate the run's trace into a fresh cache (child process)."""
        cache = self.work / f"traces{rep}"
        done = subprocess.run(
            [sys.executable, str(HERE / "gen_trace.py"),
             "--workload", self.workload, "--seed", str(self.seed),
             "--cache", str(cache)],
            capture_output=True, text=True, timeout=300, env=self.child_env())
        if done.returncode != 0:
            raise RuntimeError(f"trace generation failed:\n{done.stderr}")
        info = json.loads(done.stdout.splitlines()[-1])
        info["cache"] = cache
        self.traces.append(info)
        return info

    def setup_s(self) -> float:
        return statistics.median(self.clock.seconds(start, end)
                                 for _, start, end in self.setup_windows)

    def op_span(self, name: str = "op", **fields):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name, **fields)

    def fail(self, reason: str) -> None:
        with self.lock:
            self.ledger.fail(reason)

    def loop(self, op, seconds: float) -> int:
        """Run ops back to back until ``seconds`` have passed (at least one).

        An op that raises is a failed op, not a failed run.
        """
        started = _perf()
        index = 0
        while True:
            self.ledger.attempted += 1
            try:
                op(index)
            except Exception as problem:  # noqa: BLE001 - a failed op
                self.fail(f"op {index}: {type(problem).__name__}: {problem}")
            index += 1
            if _perf() - started >= seconds:
                return index

    def traced_loop(self, op, seconds: float) -> int:
        """The traced half of a traced run: ops under the layer wrappers."""
        layers.install(self.recorder)
        try:
            self.recorder.reset()
            ops = self.loop(op, seconds)
        finally:
            self.recorder.uninstall()
        self.record_layers(self.recorder.totals(), ops)
        return ops

    def record_layers(self, totals, ops: float) -> None:
        """Keep per-layer values; layer self times must cover the ops."""
        gap = layers.attribution_gap(totals)
        if gap > 1e-6 * max(1.0, totals[2]):
            self.consistent = False
            self.notes.append(f"layer self times miss the traced time by "
                              f"{gap:.3g} s")
        values = layers.per_op(totals, ops)
        self.layer_values.update(values)
        shown = [*layers.SELF_METRICS, "tracing.unattributed_s",
                 "tracing.op_s"]
        self.notes.append("traced seconds per op: " + ", ".join(
            f"{name} {values[name]:.3f}" for name in shown if values[name]))

    def setup_layer_values(self) -> None:
        self.layer_values.update({
            "workloads.generate_s": statistics.median(
                info["generate_s"] for info in self.traces),
            "trace.encode_s": statistics.median(
                info["encode_s"] for info in self.traces),
        })

    def overhead(self, untraced: float, traced: float) -> None:
        self.layer_values.update({
            "tracing.untraced_rec_per_s": untraced,
            "tracing.traced_rec_per_s": traced,
            "tracing.overhead_x": untraced / traced,
        })

    def write_spans(self) -> Path:
        path = (Path.cwd() / ".perfbench_work" / "spans"
                / f"{self.workload}-seed{self.seed}.json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.recorder.spans))
        return path


def report(run: Run, clock: HostClock, first: list, rerun: list,
           latencies: list, rss: float, unit: str) -> None:
    """The end-to-end metrics, from a run's windows priced by ``clock``.

    ``first`` and ``rerun`` hold ``(records, start, end)`` windows; each
    latency is a list of ``(start, end)`` segments.
    """
    priced = [sum(clock.seconds(start, end) for start, end in segments)
              for segments in latencies]
    label, slow = tail(priced)
    run.notes += [
        f"{unit}: {len(priced)}; chunk tail is {label}",
        f"wall clock: rec_per_s {rate(first, wall_seconds):.1f}, "
        f"rerun_rec_per_s {rate(rerun, wall_seconds):.1f}; "
        f"host speed {clock.mean_speed():.0f}/s",
    ]
    run.metrics.update({
        "setup_s": metric(run.setup_s(), "s"),
        "rec_per_s": metric(rate(first, clock.seconds), "records/s"),
        "rerun_rec_per_s": metric(rate(rerun, clock.seconds), "records/s"),
        "chunk_p50_ms": metric(statistics.median(priced) * 1000.0, "ms"),
        "chunk_p95_ms": metric(slow * 1000.0, "ms"),
        "peak_rss_mb": metric(rss, "MB"),
    })


# -- batch workloads ---------------------------------------------------------------


def batch(run: Run, make_op) -> None:
    """Set up, then run ``make_op``'s ops untraced or as a traced run."""
    for rep in range(SETUP_REPS):
        started = _perf()
        run.gen_trace(rep)
        run.setup_windows.append((1, started, _perf()))
    for info in run.traces[:-1]:
        shutil.rmtree(info["cache"])
    windows = Windows()
    op = make_op(run, run.traces[-1], windows)
    if run.traced:
        run.loop(op, run.seconds / 2)
        untraced = len(windows.first)
        ops = run.traced_loop(op, run.seconds / 2)
        run.setup_layer_values()
        run.layer_values["host.ref_kernel_per_s"] = run.clock.mean_speed()
        run.overhead(rate(windows.first[:untraced], run.clock.seconds),
                     rate(windows.first[untraced:], run.clock.seconds))
        run.notes.append(f"traced ops: {ops}")
        return
    run.loop(op, run.seconds)
    report(run, run.clock, windows.first, windows.rerun, windows.ops,
           peak_rss_mb(), "ops")


def detail_op(run: Run, trace: dict, windows: Windows):
    """One op: ``run_workload`` on the object engine, then its rerun.

    The first pass starts from an empty private result cache, so it
    decodes the trace from the private trace cache and simulates; the
    rerun pass is ``RESULT_HITS`` calls the result cache answers.
    """
    os.environ["REPRO_TRACE_CACHE"] = str(trace["cache"])

    def op(index: int) -> None:
        results = run.work / f"results{index}"
        os.environ[RESULTS_CACHE_ENV] = str(results)
        gc.collect()
        with run.op_span(index=index):
            started = _perf()
            result = experiments.run_workload(
                run.spec, ZEC12_CONFIG_2, scale=run.scale,
                engine_mode="object")
            simulated = _perf()
            if not any(results.glob("*.json")):
                raise RuntimeError("first pass left no result-cache entry")
            hits = [experiments.run_workload(
                        run.spec, ZEC12_CONFIG_2, scale=run.scale,
                        engine_mode="object")
                    for _ in range(RESULT_HITS)]
            ended = _perf()
        shutil.rmtree(results)
        records = result.instructions
        windows.first.append((records, started, simulated))
        windows.rerun.append((records * RESULT_HITS, simulated, ended))
        windows.ops.append([(started, ended)])
        if not run.ledger.expect(run_digest(result), f"op {index}"):
            return
        if any(hit != result for hit in hits):
            run.fail(f"op {index}: a result-cache rerun differs")

    return op


def sampled_pair(path, store_dir: Path, trace_key: str, ledger: Ledger,
                 windows: Windows, label: str = "op", corrupt=None,
                 span=None) -> int:
    """One op: a sampled pass into an empty store, then a rerun from it.

    ``corrupt(store_dir)`` runs between the passes (a planted fault for the
    self-tests); ``span(name)`` wraps each pass (tracing).  Checks go to
    ``ledger``; returns how many checkpoints the rerun skipped as
    unreadable.
    """
    span = span or (lambda name: contextlib.nullcontext())

    def timed_pass(store, name):
        gc.collect()
        with span(name):
            started = _perf()
            with open_trace(path) as trace:
                result = sampling.run_sampled(
                    trace, config=ZEC12_CONFIG_2, checkpoint_store=store,
                    trace_key=trace_key, engine_mode="auto")
            return result, (result.total_records, started, _perf())

    result, first = timed_pass(sampling.CheckpointStore(store_dir), "first")
    if corrupt is not None:
        corrupt(store_dir)
    restore = sampling.CheckpointStore(store_dir)
    again, rerun = timed_pass(restore, "rerun")
    shutil.rmtree(store_dir, ignore_errors=True)
    windows.first.append(first)
    windows.rerun.append(rerun)
    windows.ops.append([first[1:], rerun[1:]])
    if not ledger.expect(sampled_digest(result), label):
        return len(restore.skipped)
    problems = []
    if sampled_digest(again) != sampled_digest(result):
        problems.append("rerun estimates differ from the first pass")
    if result.checkpoints_saved != len(result.measurements):
        problems.append(f"first pass saved {result.checkpoints_saved} of "
                        f"{len(result.measurements)} checkpoints")
    if again.checkpoints_loaded != result.checkpoints_saved:
        problems.append(f"rerun loaded {again.checkpoints_loaded} of "
                        f"{result.checkpoints_saved} checkpoints")
    if restore.skipped:
        problems.append(f"rerun skipped {len(restore.skipped)} unreadable "
                        f"checkpoints")
    for problem in problems:
        ledger.fail(f"{label}: {problem}")
    return len(restore.skipped)


def sampled_op(run: Run, trace: dict, windows: Windows):
    trace_key = trace_identity(run.spec, run.scale)

    def op(index: int) -> None:
        parent = run.recorder.new_span_id() if run.recorder else None
        run.ckpt_skipped += sampled_pair(
            trace["path"], run.work / f"ckpt{index}", trace_key, run.ledger,
            windows, label=f"op {index}",
            span=lambda name: run.op_span(name, parent=parent, index=index))
        if run.recorder is not None:
            (start, _), (_, end) = windows.ops[-1]
            run.recorder.add_span("op", start, end, None, span_id=parent,
                                  index=index)

    return op


# -- service ---------------------------------------------------------------------


class Daemon:
    """A ``repro serve`` subprocess started through ``serve_boot.py``.

    It runs pinned to its own vCPU with its own host clock, dumped when it
    stops; a traced daemon also dumps its layer totals.
    """

    def __init__(self, run: Run, name: str, traced: bool = False) -> None:
        self.clock_path = run.work / f"clock-{name}.json"
        self.stats_path = run.work / f"layers-{name}.json" if traced else None
        command = [sys.executable, str(HERE / "serve_boot.py"),
                   "--cpu", str(run.daemon_cpu),
                   "--clock", str(self.clock_path)]
        if traced:
            command += ["--stats", str(self.stats_path)]
        command += ["--", "serve", "--host", "127.0.0.1", "--port", "0",
                    "--backend", "thread", "--jobs", str(SESSIONS),
                    "--spool", str(run.work / f"spool-{name}")]
        self.log = open(run.work / f"daemon-{name}.log", "wb")
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=self.log, env=run.child_env())
        self.client: ServiceClient | None = None
        self.clock: HostClock | None = None
        self.totals = None
        try:
            self.client = ServiceClient("127.0.0.1", self._port(), timeout=60)
            self.client.wait_healthy(timeout=60)
        except BaseException:
            self.stop()
            raise

    def _port(self, timeout: float = 60.0) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline().decode() if ready else ""
        found = re.search(r"http://[^:\s]+:(\d+)", line)
        if found is None:
            raise RuntimeError(f"daemon did not announce a port: {line!r}")
        return int(found.group(1))

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def chunk_exec_ms(self) -> float:
        """Mean of the daemon's ``repro_service_chunk_seconds`` histogram."""
        samples = parse_prometheus(self.client.metrics_text())[
            "repro_service_chunk_seconds"]["samples"]
        total = samples[("repro_service_chunk_seconds_sum", ())]
        count = samples[("repro_service_chunk_seconds_count", ())]
        return 1000.0 * total / count if count else 0.0

    def stop(self) -> None:
        """Drain and stop the daemon (killed if it will not), then read dumps."""
        if self.proc.poll() is None:
            try:
                if self.client is None:
                    raise ServiceUnavailable("daemon never answered")
                self.client.shutdown()
                self.proc.wait(timeout=60)
            except (ServiceError, ServiceUnavailable,
                    subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        if self.clock is None and self.clock_path.exists():
            self.clock = HostClock.load(self.clock_path)
        if self.stats_path is not None and self.stats_path.exists():
            self.totals = json.loads(self.stats_path.read_text())


class Load:
    """What the load generator saw in one load phase (wall windows)."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        #: (records, ingest start, processed) per chunk.
        self.chunks: list[tuple[int, float, float]] = []
        self.ingest_s: list[float] = []
        self.polls = 0
        #: (records, resume start, last processed) per resumed session.
        self.resumed: list[tuple[int, float, float]] = []
        self.suspend_s: list[float] = []
        self.resume_s: list[float] = []
        self.refused = 0
        self.window: tuple[int, float, float] = (0, 0.0, 0.0)

    def chunk(self, records: int, started: float, ingested: float,
              done: float, polls: int) -> None:
        with self.lock:
            self.chunks.append((records, started, done))
            self.ingest_s.append(ingested - started)
            self.polls += polls


def wait_processed(client: ServiceClient, session: str, target: int) -> int:
    """Poll until the session processed ``target`` records; returns polls."""
    deadline = _perf() + CHUNK_TIMEOUT_S
    polls = 0
    while True:
        status = client.session(session)
        polls += 1
        if status["processed_records"] >= target:
            return polls
        if status["state"] == "failed":
            raise RuntimeError(f"session failed: {status['error']}")
        if _perf() > deadline:
            raise TimeoutError(f"chunk not processed in {CHUNK_TIMEOUT_S} s")
        time.sleep(POLL_S)


def session_pass(run: Run, client: ServiceClient, chunks: list, load: Load,
                 deadline: float, may_cut: bool, parent: int | None):
    """Stream the whole trace through one session, closed loop.

    Suspends and resumes once mid-trace.  Returns the closed session's
    result, or ``None`` when the run's deadline cut the pass short.
    """
    session = client.create_session(config="2", engine="auto",
                                    label="perfbench")["id"]
    middle = len(chunks) // 2
    resumed_at = last_done = None
    resumed_records = processed = 0
    try:
        for index, records in enumerate(chunks):
            if may_cut and _perf() >= deadline:
                return None
            if index == middle:
                started = _perf()
                client.suspend(session)
                resumed_at = _perf()
                client.resume(session)
                with load.lock:
                    load.suspend_s.append(resumed_at - started)
                    load.resume_s.append(_perf() - resumed_at)
            started = _perf()
            client.ingest(session, records)
            ingested = _perf()
            processed += len(records)
            polls = wait_processed(client, session, processed)
            last_done = _perf()
            load.chunk(len(records), started, ingested, last_done, polls)
            if resumed_at is not None:
                resumed_records += len(records)
            if run.recorder is not None:
                run.recorder.add_span("chunk", started, last_done, parent,
                                      records=len(records))
        return client.close_session(session)["result"]
    finally:
        if resumed_records:
            with load.lock:
                load.resumed.append((resumed_records, resumed_at, last_done))
        with contextlib.suppress(ServiceError, ServiceUnavailable):
            client.delete_session(session)


def session_loop(run: Run, client: ServiceClient, chunks: list, load: Load,
                 deadline: float) -> None:
    """One client: session passes back to back until the deadline."""
    finished = 0
    while _perf() < deadline or finished == 0:
        parent = run.recorder.new_span_id() if run.recorder else None
        started = _perf()
        try:
            result = session_pass(run, client, chunks, load, deadline,
                                  finished > 0, parent)
        except Exception as problem:  # noqa: BLE001 - a failed op
            with run.lock:
                run.ledger.attempted += 1
                load.refused += getattr(problem, "status", None) in (429, 503)
                run.ledger.fail(f"session pass: {type(problem).__name__}: "
                                f"{problem}")
            if isinstance(problem, ServiceUnavailable):
                return  # the daemon is gone; every further pass would fail
            finished += 1
            continue
        if result is None:
            return  # cut by the deadline: not an op
        finished += 1
        if run.recorder is not None:
            run.recorder.add_span("session", started, _perf(), None,
                                  span_id=parent)
        with run.lock:
            run.ledger.attempted += 1
            run.ledger.expect(session_digest(result), "session")


def drive(run: Run, daemon: Daemon, chunks: list, seconds: float) -> Load:
    """One load phase: ``SESSIONS`` closed-loop clients for ``seconds``."""
    load = Load()
    deadline = _perf() + seconds
    threads = [threading.Thread(target=session_loop,
                                args=(run, daemon.client, chunks, load,
                                      deadline))
               for _ in range(SESSIONS)]
    started = _perf()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    load.window = (sum(chunk[0] for chunk in load.chunks), started, _perf())
    return load


def service_layer_values(run: Run, load: Load, exec_ms: float) -> None:
    """Client-side service layer values, from the untraced load phase."""
    count = len(load.chunks)
    latency_ms = 1000.0 * sum(end - start for _, start, end in load.chunks)
    ingest_ms = 1000.0 * sum(load.ingest_s)
    run.layer_values.update({
        "service.ingest_ms": ingest_ms / count,
        "service.chunk_exec_ms": exec_ms,
        "service.queue_wait_ms": (latency_ms - ingest_ms) / count - exec_ms,
        "service.polls_per_chunk": load.polls / count,
        "service.suspend_ms": 1000.0 * statistics.mean(load.suspend_s),
        "service.resume_ms": 1000.0 * statistics.mean(load.resume_s),
        "service.refused": load.refused,
    })


def service(run: Run) -> None:
    """Set up the daemon, drive it, and report one metric family."""
    daemons: list[Daemon] = []
    boots: list[float] = []
    try:
        for rep in range(SETUP_REPS):
            if daemons:
                daemons[-1].stop()
            started = _perf()
            info = run.gen_trace(rep)
            booting = _perf()
            daemons.append(Daemon(run, f"setup{rep}"))
            boots.append(_perf() - booting)
            records = load_trace(info["path"])
            chunks = [records[start:start + CHUNK_RECORDS]
                      for start in range(0, len(records), CHUNK_RECORDS)]
            run.setup_windows.append((1, started, _perf()))
        daemon = daemons[-1]
        load = drive(run, daemon, chunks,
                     run.seconds / 2 if run.traced else run.seconds)
        exec_ms = daemon.chunk_exec_ms() if run.traced else None
        rss = daemon.peak_rss_mb()
        daemon.stop()
        if not run.traced:
            report(run, daemon.clock, [load.window], load.resumed,
                   [[(start, end)] for _, start, end in load.chunks], rss,
                   "chunks")
            return
        run.setup_layer_values()
        run.layer_values["service.boot_s"] = statistics.median(boots)
        service_layer_values(run, load, exec_ms)
        traced = Daemon(run, "traced", traced=True)
        daemons.append(traced)
        traced_load = drive(run, traced, chunks, run.seconds / 2)
        traced.stop()
        run.record_layers(traced.totals, traced_load.window[0] / len(records))
        run.layer_values["host.ref_kernel_per_s"] = traced.clock.mean_speed()
        run.overhead(rate([load.window], daemon.clock.seconds),
                     rate([traced_load.window], traced.clock.seconds))
    finally:
        for started_daemon in daemons:
            started_daemon.stop()


def detail_btb2(run: Run) -> None:
    batch(run, detail_op)


def sampled_ckpt(run: Run) -> None:
    batch(run, sampled_op)


WORKLOADS = {
    "detail-btb2": detail_btb2,
    "sampled-ckpt": sampled_ckpt,
    "service": service,
}
