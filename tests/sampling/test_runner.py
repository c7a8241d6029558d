"""Interval runner: determinism, checkpoint resume, and the error pin."""

import pytest

from repro.audit import Auditor
from repro.core.config import ZEC12_CONFIG_1, ZEC12_CONFIG_2, ZEC12_CONFIG_3
from repro.core.events import OutcomeKind
from repro.engine.simulator import Simulator, simulate
from repro.sampling import (
    CheckpointStore,
    SamplingPlan,
    load_state,
    run_sampled,
    save_state,
)
from repro.telemetry.metrics import REGISTRY
from repro.trace.reader import TraceFile
from repro.workloads.catalog import workload_by_name

SMALL_PLAN = SamplingPlan(interval=400, period=8000, warmup=400)


def _payload(sampled):
    """Measurement payloads without the ``from_checkpoint`` provenance flag."""
    return [(m.index, m.start, m.stop, m.delta) for m in sampled.measurements]


def _bad_fraction(counters) -> float:
    bad = sum(count for kind, count in counters.outcomes.items() if kind.is_bad)
    return bad / counters.branches


def test_sampled_run_shape_and_extrapolation():
    trace = workload_by_name("TPF").trace(scale=0.1)
    sampled = run_sampled(trace, config=ZEC12_CONFIG_2, plan=SMALL_PLAN)
    assert len(sampled.measurements) == len(SMALL_PLAN.intervals(len(trace)))
    # Instruction count extrapolates exactly (one record per instruction).
    assert sampled.result.counters.instructions == len(trace)
    # Every measured interval contributed the planned record count.
    for measurement in sampled.measurements:
        assert measurement.instructions == SMALL_PLAN.interval
        assert measurement.cycles > 0
    assert sampled.detailed_records == sum(
        m.stop - m.start + SMALL_PLAN.warmup for m in sampled.measurements
    )
    # Outcome classification survives scaling: fractions sum to ~1.
    fractions = sampled.result.counters.outcome_fractions()
    assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-6)


def test_trace_shorter_than_one_interval_is_rejected():
    trace = workload_by_name("TPF").trace(scale=0.1)[:500]
    with pytest.raises(ValueError, match="shorter than one"):
        run_sampled(trace, config=ZEC12_CONFIG_2, plan=SMALL_PLAN)


@pytest.mark.parametrize("config", [ZEC12_CONFIG_1, ZEC12_CONFIG_2,
                                    ZEC12_CONFIG_3],
                         ids=lambda c: c.name)
@pytest.mark.parametrize("workload", ["TPF", "Informix"])
def test_checkpointed_rerun_is_deterministic(tmp_path, config, workload):
    """Cold (saving) and warm (loading) sampled runs agree exactly."""
    trace = workload_by_name(workload).trace(scale=0.1)
    store = CheckpointStore(tmp_path)
    kwargs = dict(config=config, plan=SMALL_PLAN, checkpoint_store=store,
                  trace_key=f"{workload}-test")
    cold = run_sampled(trace, **kwargs)
    assert cold.checkpoints_saved == len(cold.measurements)
    assert cold.checkpoints_loaded == 0
    warm = run_sampled(trace, **kwargs)
    assert warm.checkpoints_loaded == len(warm.measurements)
    assert warm.checkpoints_saved == 0
    assert _payload(warm) == _payload(cold)
    assert warm.result.counters.state_dict() == cold.result.counters.state_dict()
    assert warm.cpi == cold.cpi
    assert warm.bad_outcome_fraction == cold.bad_outcome_fraction


def test_checkpointed_rerun_is_deterministic_under_audit(tmp_path):
    trace = workload_by_name("TPF").trace(scale=0.1)
    store = CheckpointStore(tmp_path)
    kwargs = dict(config=ZEC12_CONFIG_2, plan=SMALL_PLAN,
                  checkpoint_store=store, trace_key="tpf-audited")
    cold = run_sampled(trace, audit=Auditor(), **kwargs)
    warm = run_sampled(trace, audit=Auditor(), **kwargs)
    assert warm.checkpoints_loaded == len(warm.measurements)
    assert _payload(warm) == _payload(cold)


def test_save_load_resume_matches_uninterrupted_run(tmp_path):
    """Snapshot mid-run, restore from disk, resume: counters exactly match."""
    trace = workload_by_name("TPF").trace(scale=0.05)
    split = len(trace) // 2

    uninterrupted = Simulator(config=ZEC12_CONFIG_2, audit=Auditor())
    reference = uninterrupted.run(trace)

    first = Simulator(config=ZEC12_CONFIG_2, audit=Auditor())
    for record in trace[:split]:
        first.step(record)
    path = tmp_path / "mid.json.gz"
    save_state(path, first.state_dict())

    resumed = Simulator(config=ZEC12_CONFIG_2, audit=Auditor())
    resumed.load_state_dict(load_state(path))
    for record in trace[split:]:
        resumed.step(record)
    result = resumed.finish()

    assert result.counters.state_dict() == reference.counters.state_dict()
    assert result.cpi == reference.cpi


def _store_counts() -> dict:
    """``repro_checkpoint_store_total`` by result, process-wide."""
    metric = REGISTRY.get("repro_checkpoint_store_total")
    return {result: metric.value(result=result) if metric else 0.0
            for result in ("hit", "refused", "miss", "skipped", "save")}


def test_stale_checkpoint_is_recomputed(tmp_path):
    """A checkpoint from a different schema degrades to recompute: each is
    a ``refused`` store result and a skip-ledger entry, never a ``hit``."""
    trace = workload_by_name("TPF").trace(scale=0.1)
    store = CheckpointStore(tmp_path)
    kwargs = dict(config=ZEC12_CONFIG_2, plan=SMALL_PLAN,
                  checkpoint_store=store, trace_key="tpf-stale")
    cold = run_sampled(trace, **kwargs)
    # Corrupt every stored state's version marker.
    sim = Simulator(config=ZEC12_CONFIG_2)
    model = sim.model_fingerprint()
    for interval in SMALL_PLAN.intervals(len(trace)):
        identity = (model, "tpf-stale", SMALL_PLAN.cache_key(), interval.index)
        state = store.load(*identity)
        state["version"] = 99_999
        save_state(store.path_for(*identity), state)
    before = _store_counts()
    redone = run_sampled(trace, **kwargs)
    after = _store_counts()
    intervals = len(redone.measurements)
    assert intervals == 12
    assert {result: after[result] - before[result] for result in after} == \
        {"hit": 0, "refused": intervals, "miss": 0, "skipped": 0,
         "save": intervals}
    assert redone.checkpoints_loaded == 0
    assert redone.checkpoints_saved == len(redone.measurements)
    assert redone.measurements == cold.measurements
    # Every refused state is in the skip ledger, with the model's reason.
    assert len(store.skipped) == len(redone.measurements)
    assert all("schema version 99999" in reason
               for _, reason in store.skipped)


def test_sampled_matches_full_within_two_percent():
    """The accuracy pin: |ΔCPI| ≤ 2% and |Δbad-fraction| ≤ 2% absolute.

    A smaller-scale version of the bench_sampling.py demonstration, on the
    TPF trace at scale 0.35 with a fixed plan — fully deterministic, so the
    asserted errors cannot drift without a code change.
    """
    trace = workload_by_name("TPF").trace(scale=0.35)
    plan = SamplingPlan(mode="stratified", interval=500, period=8000,
                        warmup=500, seed=12345)
    full = simulate(trace, config=ZEC12_CONFIG_2)
    sampled = run_sampled(trace, config=ZEC12_CONFIG_2, plan=plan)

    cpi_error = abs(sampled.cpi - full.cpi) / full.cpi
    bad_error = abs(sampled.bad_outcome_fraction - full.bad_outcome_fraction)
    assert cpi_error <= 0.02
    assert bad_error <= 0.02
    # The sampled run only simulated a small detailed fraction.
    assert sampled.detailed_records / len(trace) <= 0.15


def test_interval_telemetry_events():
    from repro.telemetry import Telemetry, Tracer

    trace = workload_by_name("TPF").trace(scale=0.1)
    telemetry = Telemetry(tracer=Tracer())
    sampled = run_sampled(trace, config=ZEC12_CONFIG_2, plan=SMALL_PLAN,
                          telemetry=telemetry)
    events = [e for e in telemetry.tracer.events if e["kind"] == "interval"]
    phases = {event["phase"] for event in events}
    assert phases == {"warming", "warmup", "measure", "end"}
    # One warmup/measure/end triple per interval.
    for phase in ("warmup", "measure", "end"):
        count = sum(1 for event in events if event["phase"] == phase)
        assert count == len(sampled.measurements)


def test_trace_file_window_iteration(tmp_path):
    """run_sampled over an on-disk TraceFile equals the in-memory run."""
    from repro.trace.reader import open_trace
    from repro.trace.writer import write_trace

    spec = workload_by_name("TPF")
    records = spec.trace(scale=0.1)
    path = tmp_path / "tpf.trace"
    with open(path, "wb") as stream:
        write_trace(stream, records)
    with open_trace(path) as trace_file:
        streamed = run_sampled(trace_file, config=ZEC12_CONFIG_2,
                               plan=SMALL_PLAN)
    in_memory = run_sampled(records, config=ZEC12_CONFIG_2, plan=SMALL_PLAN)
    assert streamed.measurements == in_memory.measurements
    assert streamed.cpi == in_memory.cpi


class _CountingTraceFile(TraceFile):
    """A TraceFile that counts ``iter_from`` passes and records yielded."""

    passes = 0
    yielded = 0

    def iter_from(self, start=0, stop=None):
        self.passes += 1
        for record in super().iter_from(start, stop):
            self.yielded += 1
            yield record


def test_interval_consumption_is_single_pass(tmp_path):
    """The O(N*K) regression pin: one stream pass, <= N records read.

    The old ``_window`` helper re-iterated a non-seekable trace from
    record 0 for *every* interval; a plan with K intervals read ~K*N
    records.  Without checkpoints to seek past, the cursor must consume
    exactly one ``iter_from`` pass and never read past the last measured
    interval.
    """
    from repro.trace.writer import write_trace

    records = workload_by_name("TPF").trace(scale=0.1)
    path = tmp_path / "tpf.trace"
    with open(path, "wb") as stream:
        write_trace(stream, records)
    with _CountingTraceFile(path) as counting:
        sampled = run_sampled(counting, config=ZEC12_CONFIG_2,
                              plan=SMALL_PLAN)
    assert counting.passes == 1
    assert counting.yielded <= len(records)
    # Streamed consumption is not just bounded — it is equivalent.
    reference = run_sampled(records, config=ZEC12_CONFIG_2, plan=SMALL_PLAN)
    assert _payload(sampled) == _payload(reference)


def test_cursor_refuses_a_plain_iterable():
    """A trace is a sequence or a TraceFile: a sized iterable that is
    neither is refused up front, before any record is read."""
    records = workload_by_name("TPF").trace(scale=0.1)

    class Stream:
        def __len__(self):
            return len(records)

        def __iter__(self):
            raise AssertionError("the runner read a refused trace")

    with pytest.raises(TypeError, match="sequence of records or a TraceFile"):
        run_sampled(Stream(), config=ZEC12_CONFIG_2, plan=SMALL_PLAN)


def test_trace_file_windows_reuse_one_stream(tmp_path):
    """Contiguous windows over a TraceFile share a single iter_from pass."""
    from repro.sampling.runner import _TraceCursor
    from repro.trace.reader import open_trace
    from repro.trace.writer import write_trace

    records = workload_by_name("TPF").trace(scale=0.05)
    path = tmp_path / "tpf.trace"
    with open(path, "wb") as stream:
        write_trace(stream, records)
    with open_trace(path) as trace_file:
        cursor = _TraceCursor(trace_file)
        out = list(cursor.window(0, 100))
        out += list(cursor.window(100, 250))
        out += list(cursor.window(250, 400))
        assert cursor.stream_passes == 1  # contiguous: no re-seek
        cursor.skip_to(1_000)
        out += list(cursor.window(1_000, 1_100))
        assert cursor.stream_passes == 2  # one re-seek for the jump
    assert out == list(records[:400]) + list(records[1_000:1_100])


def test_cursor_refuses_to_rewind():
    from repro.sampling.runner import _TraceCursor

    cursor = _TraceCursor(list(range(10)))
    list(cursor.window(0, 5))
    with pytest.raises(ValueError, match="rewind"):
        cursor.skip_to(2)
