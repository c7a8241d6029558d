"""Checkpoint-parallel simulation: bit-identity, stitching, start states."""

import math

import pytest

from repro.core.config import ZEC12_CONFIG_1, ZEC12_CONFIG_2
from repro.engine.simulator import Simulator, simulate
from repro.experiments.backends import SerialBackend
from repro.sampling import (
    CheckpointStore,
    ParallelPlan,
    SamplingPlan,
    TraceSource,
    plan_slices,
    run_parallel,
    run_sampled,
)
from repro.sampling.parallel import stitch_deltas
from repro.workloads.catalog import workload_by_name

SMALL_PLAN = SamplingPlan(interval=400, period=8000, warmup=400)


def _source(name: str, scale: float) -> TraceSource:
    return TraceSource.for_workload(workload_by_name(name), scale)


# -- slice planner ---------------------------------------------------------


def test_plan_slices_partitions_exactly():
    slices = plan_slices(10_007, 4)
    assert [s.index for s in slices] == [0, 1, 2, 3]
    assert slices[0].start == 0
    assert slices[-1].stop == 10_007
    # Contiguous, non-overlapping, near-equal.
    for left, right in zip(slices, slices[1:]):
        assert left.stop == right.start
    lengths = [s.stop - s.start for s in slices]
    assert max(lengths) - min(lengths) <= 1


def test_plan_slices_never_produces_empty_slices():
    assert plan_slices(0, 4) == []
    assert len(plan_slices(3, 8)) == 3
    for s in plan_slices(3, 8):
        assert s.stop > s.start


def test_parallel_plan_validates():
    with pytest.raises(ValueError):
        ParallelPlan(intervals=0)
    assert ParallelPlan(3).cache_key() == ("parallel", 3)


# -- exact mode: the bit-identity contract ---------------------------------


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("workload", ["TPF", "Informix"])
def test_exact_parallel_is_bit_identical_to_serial(workload, backend):
    """The acceptance pin: same counters, same CPI, any backend."""
    spec = workload_by_name(workload)
    serial = simulate(spec.trace(0.05), config=ZEC12_CONFIG_2)
    stitched = run_parallel(_source(workload, 0.05), config=ZEC12_CONFIG_2,
                            plan=ParallelPlan(4), backend=backend)
    assert stitched.mode == "exact"
    assert stitched.result.counters.state_dict() == \
        serial.counters.state_dict()
    assert stitched.result.cpi == serial.cpi
    assert stitched.cpi == serial.cpi


def test_exact_parallel_under_auto_is_bit_identical_to_serial():
    """The producer and the slices feed the batched core under ``auto``."""
    spec = workload_by_name("TPF")
    serial = simulate(spec.trace(0.05), config=ZEC12_CONFIG_2)
    stitched = run_parallel(_source("TPF", 0.05), config=ZEC12_CONFIG_2,
                            plan=ParallelPlan(4), backend="serial",
                            engine_mode="auto")
    assert stitched.result.counters.state_dict() == \
        serial.counters.state_dict()
    assert stitched.result.cpi == serial.cpi


def test_exact_single_slice_degenerates_to_serial():
    spec = workload_by_name("TPF")
    serial = simulate(spec.trace(0.05), config=ZEC12_CONFIG_2)
    stitched = run_parallel(_source("TPF", 0.05), config=ZEC12_CONFIG_2,
                            plan=ParallelPlan(1), backend="serial")
    assert len(stitched.outcomes) == 1
    assert stitched.produced_records == 0  # no interior boundaries
    assert stitched.result.counters.state_dict() == \
        serial.counters.state_dict()


def test_exact_deltas_telescope_to_final_counters():
    """Integer per-slice deltas sum to the serial totals; cycles to float."""
    spec = workload_by_name("TPF")
    serial = simulate(spec.trace(0.05), config=ZEC12_CONFIG_2)
    stitched = run_parallel(_source("TPF", 0.05), config=ZEC12_CONFIG_2,
                            plan=ParallelPlan(4), backend="serial")
    merged = stitch_deltas(stitched.outcomes)
    final = serial.counters.state_dict()
    for key, value in final.items():
        if key == "cycles":
            assert merged[key] == pytest.approx(value, rel=1e-9)
        elif isinstance(value, dict):
            for name, amount in value.items():
                assert merged[key].get(name, 0) == pytest.approx(
                    amount, rel=1e-9)
        else:
            assert merged[key] == value, key


def test_exact_checkpoint_store_round_trip(tmp_path):
    """Cold run saves boundary states; warm rerun produces zero records."""
    store = CheckpointStore(tmp_path)
    source = _source("TPF", 0.05)
    cold = run_parallel(source, config=ZEC12_CONFIG_2, plan=ParallelPlan(4),
                        backend="serial", checkpoint_store=store)
    assert cold.checkpoints_saved == 3  # K-1 interior boundaries
    assert cold.checkpoints_loaded == 0  # workers never re-read them
    assert cold.produced_records > 0
    warm = run_parallel(source, config=ZEC12_CONFIG_2, plan=ParallelPlan(4),
                        backend="serial", checkpoint_store=store)
    assert warm.produced_records == 0
    assert warm.checkpoints_saved == 0
    assert warm.checkpoints_loaded == 3  # the producer's reads only
    assert warm.result.counters.state_dict() == \
        cold.result.counters.state_dict()
    # Boundary states are keyed by record, not K: K=2 reuses the K=4 state
    # at the shared midpoint boundary instead of re-producing all of it.
    half = run_parallel(source, config=ZEC12_CONFIG_2, plan=ParallelPlan(2),
                        backend="serial", checkpoint_store=store)
    assert half.result.counters.state_dict() == \
        cold.result.counters.state_dict()
    assert half.produced_records == 0  # midpoint was a K=4 boundary


def test_exact_mode_differs_across_configs():
    """Sanity: the stitched result tracks the config, not the plan."""
    one = run_parallel(_source("TPF", 0.05), config=ZEC12_CONFIG_1,
                       plan=ParallelPlan(3), backend="serial")
    two = run_parallel(_source("TPF", 0.05), config=ZEC12_CONFIG_2,
                       plan=ParallelPlan(3), backend="serial")
    assert one.cpi != two.cpi


def test_corrupt_checkpoint_is_recomputed_by_the_producer(tmp_path):
    """A stored state the model refuses is produced again, not shipped."""
    store = CheckpointStore(tmp_path)
    source = _source("TPF", 0.05)
    run_parallel(source, config=ZEC12_CONFIG_2, plan=ParallelPlan(4),
                 backend="serial", checkpoint_store=store)
    # Poison every stored boundary state with a stale schema version.
    from repro.sampling import load_state, save_state

    for path in store.entries():
        state = load_state(path)
        state["version"] = 99_999
        save_state(path, state)
    # No store this time would re-produce; with the poisoned store the
    # producer recomputes (load fails -> steps) and re-saves good states.
    redo = run_parallel(source, config=ZEC12_CONFIG_2, plan=ParallelPlan(4),
                        backend="serial", checkpoint_store=store)
    serial = simulate(workload_by_name("TPF").trace(0.05),
                      config=ZEC12_CONFIG_2)
    assert redo.result.counters.state_dict() == serial.counters.state_dict()
    assert redo.produced_records > 0  # poisoned states forced a re-produce
    # One skip-ledger entry per refused boundary state (4 slices, 3 cuts).
    assert sorted(path for path, _ in store.skipped) == store.entries()
    assert all("schema version 99999" in reason
               for _, reason in store.skipped)


class _ClearingBackend(SerialBackend):
    """Empties a store between the producer pass and the fan-out, as
    ``repro checkpoint clear`` does to a run in flight."""

    def __init__(self, store: CheckpointStore) -> None:
        self.store = store

    def map(self, function, items, jobs=1):
        self.store.clear()
        return super().map(function, items, jobs)


def test_store_emptied_before_the_fan_out_stays_exact(tmp_path):
    """Slices start from the states the producer handed them, so a store
    that vanishes under the fan-out cannot change (or crash) the run."""
    store = CheckpointStore(tmp_path)
    source = _source("TPF", 0.05)
    serial = simulate(workload_by_name("TPF").trace(0.05),
                      config=ZEC12_CONFIG_2)
    kwargs = dict(config=ZEC12_CONFIG_2, plan=ParallelPlan(4),
                  checkpoint_store=store)
    cold = run_parallel(source, backend=_ClearingBackend(store), **kwargs)
    run_parallel(source, backend="serial", **kwargs)  # refill the store
    warm = run_parallel(source, backend=_ClearingBackend(store), **kwargs)
    assert warm.produced_records == 0
    assert not store.entries()
    for stitched in (cold, warm):
        assert stitched.result.counters.state_dict() == \
            serial.counters.state_dict()


def test_store_missing_a_middle_boundary_stays_exact(tmp_path):
    """The producer loads the first boundary, steps to the second and
    loads the third; the states it already handed out stay untouched.

    The serial backend passes states by reference, without a pickling
    copy, so a producer that mutated a shipped state would show here.
    """
    store = CheckpointStore(tmp_path)
    source = _source("TPF", 0.05)
    cold = run_parallel(source, config=ZEC12_CONFIG_2, plan=ParallelPlan(4),
                        backend="serial", checkpoint_store=store)
    first, middle = (o.start for o in cold.outcomes[1:3])
    model = Simulator(config=ZEC12_CONFIG_2).model_fingerprint()
    path = store.path_for(model, source.identity(), ("parallel", "exact"),
                          middle)
    path.unlink()
    rerun = run_parallel(source, config=ZEC12_CONFIG_2, plan=ParallelPlan(4),
                         backend="serial", checkpoint_store=store)
    # The end state comes from the last boundary alone; the per-slice
    # measurements pin every slice's start state.
    assert [o.measurements for o in rerun.outcomes] == \
        [o.measurements for o in cold.outcomes]
    assert rerun.result.counters.state_dict() == \
        cold.result.counters.state_dict()
    assert rerun.result.cpi == cold.result.cpi
    assert rerun.produced_records == middle - first
    assert rerun.checkpoints_loaded == 2
    assert rerun.checkpoints_saved == 1


def test_empty_trace_is_rejected():
    with pytest.raises(ValueError, match="empty trace"):
        run_parallel(TraceSource.for_records([]), config=ZEC12_CONFIG_2,
                     plan=ParallelPlan(2), backend="serial")


# -- sampled mode: CI-bounded stitching ------------------------------------


def test_sampled_parallel_chunks_cover_the_plan():
    spec = workload_by_name("TPF")
    trace = spec.trace(0.1)
    expected = SMALL_PLAN.intervals(len(trace))
    stitched = run_parallel(_source("TPF", 0.1), config=ZEC12_CONFIG_2,
                            plan=ParallelPlan(3), sampling=SMALL_PLAN,
                            backend="serial")
    assert stitched.mode == "sampled"
    assert stitched.sampled is not None
    measured = stitched.sampled.measurements
    assert [m.index for m in measured] == [i.index for i in expected]
    assert [(m.start, m.stop) for m in measured] == \
        [(i.start, i.stop) for i in expected]
    # Whole-trace extrapolation is anchored on the true record count.
    assert stitched.result.counters.instructions == len(trace)


def test_sampled_parallel_tracks_serial_sampled_estimates():
    """Same plan, chunked across workers: estimates agree within the CIs."""
    spec = workload_by_name("TPF")
    trace = spec.trace(0.1)
    serial = run_sampled(trace, config=ZEC12_CONFIG_2, plan=SMALL_PLAN)
    stitched = run_parallel(_source("TPF", 0.1), config=ZEC12_CONFIG_2,
                            plan=ParallelPlan(3), sampling=SMALL_PLAN,
                            backend="serial")
    assert math.isfinite(stitched.cpi)
    spread = serial.cpi_ci + stitched.cpi_ci
    assert abs(stitched.cpi - serial.cpi) <= max(spread, 0.05 * serial.cpi)
    assert abs(stitched.bad_outcome_fraction - serial.bad_outcome_fraction) \
        <= max(serial.bad_outcome_ci + stitched.bad_outcome_ci, 0.05)


def test_sampled_parallel_checkpoints_do_not_cross_lineages(tmp_path):
    """Sampled-parallel chunk states must never poison the serial sampled
    runner's checkpoint lineage (or vice versa): distinct plan keys."""
    store = CheckpointStore(tmp_path)
    trace = workload_by_name("TPF").trace(0.1)
    serial = run_sampled(trace, config=ZEC12_CONFIG_2, plan=SMALL_PLAN,
                         checkpoint_store=store, trace_key="tpf-x")
    assert serial.checkpoints_saved == len(serial.measurements)
    before = len(store.entries())
    stitched = run_parallel(_source("TPF", 0.1), config=ZEC12_CONFIG_2,
                            plan=ParallelPlan(3), sampling=SMALL_PLAN,
                            backend="serial", checkpoint_store=store,
                            trace_key="tpf-x")
    # The parallel run saved its own states — none shared with serial's.
    assert stitched.checkpoints_loaded == 0
    assert len(store.entries()) > before
    # And the serial lineage still replays untouched.
    warm = run_sampled(trace, config=ZEC12_CONFIG_2, plan=SMALL_PLAN,
                       checkpoint_store=store, trace_key="tpf-x")
    assert warm.checkpoints_loaded == len(warm.measurements)
    assert warm.cpi == serial.cpi


# -- orchestrator telemetry -------------------------------------------------


def test_parallel_telemetry_emits_produce_and_end_events():
    from repro.telemetry import Telemetry, Tracer

    telemetry = Telemetry(tracer=Tracer())
    stitched = run_parallel(_source("TPF", 0.05), config=ZEC12_CONFIG_2,
                            plan=ParallelPlan(4), backend="serial",
                            telemetry=telemetry)
    events = [e for e in telemetry.tracer.events if e["kind"] == "interval"]
    phases = {event["phase"] for event in events}
    assert phases == {"produce", "end"}
    produces = [e for e in events if e["phase"] == "produce"]
    assert len(produces) == 3  # one per interior boundary
    assert [e["record"] for e in produces] == \
        [s.start for s in stitched.outcomes[1:]]
    ends = [e for e in events if e["phase"] == "end"]
    assert len(ends) == len(stitched.outcomes)


# -- trace sources ----------------------------------------------------------


def test_trace_source_for_records_round_trips():
    records = workload_by_name("TPF").trace(0.05)
    source = TraceSource.for_records(records)
    assert list(source.open()) == list(records)
    serial = simulate(records, config=ZEC12_CONFIG_2)
    stitched = run_parallel(source, config=ZEC12_CONFIG_2,
                            plan=ParallelPlan(2), backend="serial")
    assert stitched.result.counters.state_dict() == \
        serial.counters.state_dict()


def test_trace_source_identities_are_stable_and_distinct():
    a = TraceSource.for_workload(workload_by_name("TPF"), 0.05)
    b = TraceSource.for_workload(workload_by_name("TPF"), 0.05)
    c = TraceSource.for_workload(workload_by_name("Informix"), 0.05)
    assert a.identity() == b.identity()
    assert a.identity() != c.identity()


def test_trace_source_streams_from_disk(tmp_path):
    """A path source streams via TraceFile and still stitches exactly."""
    from repro.trace.writer import write_trace

    records = workload_by_name("TPF").trace(0.05)
    path = tmp_path / "tpf.trace"
    with open(path, "wb") as stream:
        write_trace(stream, records)
    serial = simulate(records, config=ZEC12_CONFIG_2)
    stitched = run_parallel(TraceSource.for_path(path),
                            config=ZEC12_CONFIG_2,
                            plan=ParallelPlan(4), backend="serial")
    assert stitched.result.counters.state_dict() == \
        serial.counters.state_dict()
