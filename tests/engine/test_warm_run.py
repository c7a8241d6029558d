"""Pins for the functional-warming fast paths.

``Simulator.warm_run`` and ``BTB2.transfer_span`` are loop-hoisted rewrites
of ``warm_step`` / ``transfer_row``; the sampling subsystem's accuracy rests
on them being *behaviorally identical* to the originals.  These tests pin
that equivalence over real and generated workloads, and the incremental
path-history folds against their reference implementation.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.btb.btb2 import BTB2
from repro.btb.entry import BTBEntry
from repro.btb.history import (
    CTB_ADDRESS_DEPTH,
    PHT_ADDRESS_DEPTH,
    PathHistory,
)
from repro.core.config import PredictorConfig, ZEC12_CONFIG_2
from repro.engine.simulator import Simulator
from repro.isa.address import ROW_BYTES
from repro.isa.opcodes import BranchKind
from repro.trace.record import TraceRecord
from repro.workloads.catalog import workload_by_name
from repro.workloads.generator import WalkProfile, generate_trace
from repro.workloads.program import ProgramShape, build_program


def small_config():
    return PredictorConfig(
        btb1_rows=16, btb1_ways=2, btbp_rows=8, btbp_ways=2,
        btb2_rows=64, btb2_ways=2, pht_entries=64, ctb_entries=64,
        fit_entries=4, surprise_bht_entries=128,
    )


def test_warm_run_equals_warm_step_on_catalog_trace():
    trace = workload_by_name("TPF").trace(scale=0.05)
    bulk = Simulator(config=ZEC12_CONFIG_2)
    stepped = Simulator(config=ZEC12_CONFIG_2)
    bulk.warm_run(iter(trace))
    for record in trace:
        stepped.warm_step(record)
    assert bulk.state_dict() == stepped.state_dict()


def test_warm_run_is_resumable_mid_trace():
    """Two warm_run calls over halves equal one call over the whole."""
    trace = workload_by_name("Informix").trace(scale=0.05)
    split = len(trace) // 3
    once = Simulator(config=ZEC12_CONFIG_2)
    twice = Simulator(config=ZEC12_CONFIG_2)
    once.warm_run(iter(trace))
    twice.warm_run(iter(trace[:split]))
    twice.warm_run(iter(trace[split:]))
    assert once.state_dict() == twice.state_dict()


def test_warm_resume_from_state_dict_is_engine_agnostic():
    """Warm-from-checkpoint parity across engines.

    The checkpoint-parallel fan-out snapshots ``state_dict()`` mid-trace
    and resumes workers that may run either engine.  Both engines warming
    the remainder from the *same* restored state must land on the same
    state, and that state must equal never having checkpointed at all.
    """
    trace = workload_by_name("Informix").trace(scale=0.05)
    split = len(trace) // 3

    producer = Simulator(config=ZEC12_CONFIG_2)
    for record in trace[:split]:
        producer.step(record)  # detailed stepping, as the producer does
    snapshot = producer.state_dict()

    resumed_object = Simulator(config=ZEC12_CONFIG_2, engine_mode="object")
    resumed_object.load_state_dict(snapshot)
    resumed_object.warm_run(iter(trace[split:]))

    resumed_auto = Simulator(config=ZEC12_CONFIG_2, engine_mode="auto")
    resumed_auto.load_state_dict(snapshot)
    resumed_auto.warm_run(iter(trace[split:]))

    assert resumed_object.state_dict() == resumed_auto.state_dict()


def test_detailed_resume_from_state_dict_matches_serial_across_engines():
    """Detailed feeding after a restore is engine-independent too: the
    parallel workers' measured slices, fed from a restored boundary
    state, are bit-identical whichever engine consumes them."""
    trace = workload_by_name("TPF").trace(scale=0.05)
    split = len(trace) // 2

    serial = Simulator(config=ZEC12_CONFIG_2)
    reference = serial.run(trace)

    producer = Simulator(config=ZEC12_CONFIG_2)
    for record in trace[:split]:
        producer.step(record)
    snapshot = producer.state_dict()

    for engine_mode in ("object", "auto"):
        resumed = Simulator(config=ZEC12_CONFIG_2, engine_mode=engine_mode)
        resumed.load_state_dict(snapshot)
        resumed.feed(trace[split:])
        result = resumed.finish()
        assert result.counters.state_dict() == \
            reference.counters.state_dict(), engine_mode
        assert result.cpi == reference.cpi


@st.composite
def workloads(draw):
    shape = ProgramShape(
        functions=draw(st.integers(min_value=2, max_value=20)),
        blocks_per_function=(2, 6),
        instructions_per_block=(1, 4),
        call_fraction=draw(st.floats(min_value=0.0, max_value=0.3)),
        loop_fraction=draw(st.floats(min_value=0.0, max_value=0.4)),
        seed=draw(st.integers(min_value=0, max_value=2**12)),
    )
    profile = WalkProfile(
        uniform_fraction=draw(st.floats(min_value=0.0, max_value=1.0)),
        max_call_depth=3,
        max_loop_iterations=8,
        seed=draw(st.integers(min_value=0, max_value=2**12)),
    )
    return generate_trace(build_program(shape), 400, profile)


#: A taken branch without a target mid-trace: ``warm_step`` refuses it
#: (``TraceRecord.next_address`` raises), so ``warm_run`` must too, rather
#: than read the next record as a context switch.
MALFORMED_TRACE = [
    TraceRecord(address=0x1000, length=4),
    TraceRecord(address=0x1004, length=4, kind=BranchKind.COND, taken=True,
                target=0x1000),
    TraceRecord(address=0x1000, length=4),
    TraceRecord(address=0x1004, length=4, kind=BranchKind.COND, taken=True),
    TraceRecord(address=0x2000, length=4),
]


def _warm_error(warm, records) -> str | None:
    """The ``ValueError`` message ``warm(records)`` raised, else ``None``."""
    try:
        warm(records)
    except ValueError as error:
        return str(error)
    return None


@settings(max_examples=15, deadline=None)
@given(workloads())
@example(MALFORMED_TRACE)
def test_warm_run_equals_warm_step_property(trace):
    bulk = Simulator(config=small_config())
    stepped = Simulator(config=small_config())

    def step_all(records):
        for record in records:
            stepped.warm_step(record)

    assert (_warm_error(bulk.warm_run, iter(trace))
            == _warm_error(step_all, trace))
    assert bulk.state_dict() == stepped.state_dict()


def _populated_btb2(seed: int = 9) -> BTB2:
    btb2 = BTB2(rows=64, ways=2)
    rng = random.Random(seed)
    for _ in range(300):
        address = rng.randrange(0, 1 << 16)
        btb2.install(BTBEntry(address=address, target=address ^ 0x40,
                              kind=BranchKind.COND))
    return btb2


def test_transfer_span_equals_repeated_transfer_row():
    reference = _populated_btb2()
    fast = BTB2(rows=64, ways=2)
    fast.load_state_dict(reference.state_dict())

    start = 0x2000
    row_count = 128  # a full 4 KB block's worth, wrapping the 64-row array
    row_by_row = []
    for step in range(row_count):
        row_by_row.extend(reference.transfer_row(start + step * ROW_BYTES))
    spanned = fast.transfer_span(start, row_count)

    assert [e.state_dict() for e in spanned] == \
        [e.state_dict() for e in row_by_row]
    assert fast.state_dict() == reference.state_dict()


def test_transfer_block_covers_the_whole_block():
    btb2 = _populated_btb2(seed=4)
    entries = btb2.transfer_block(0x1000)
    for entry in entries:
        assert 0x1000 <= entry.address < 0x2000


def _reference_history(history: PathHistory) -> tuple[int, int, int]:
    bits = 0
    for bit in history._directions:
        bits = (bits << 1) | int(bit)
    return (bits,
            history._fold_addresses(PHT_ADDRESS_DEPTH),
            history._fold_addresses(CTB_ADDRESS_DEPTH))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=2**48),
                          st.booleans()),
                max_size=60))
def test_incremental_history_folds_match_reference(events):
    history = PathHistory()
    for address, taken in events:
        history.record(address, taken)
        assert (history._dir_bits, history._pht_fold, history._ctb_fold) == \
            _reference_history(history)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=2**48),
                          st.booleans()),
                min_size=2, max_size=40),
       st.data())
def test_history_folds_survive_snapshot_restore(events, data):
    history = PathHistory()
    cut = data.draw(st.integers(min_value=0, max_value=len(events) - 1))
    for address, taken in events[:cut]:
        history.record(address, taken)
    snapshot = history.snapshot()
    for address, taken in events[cut:]:
        history.record(address, taken)
    history.restore(snapshot)
    assert (history._dir_bits, history._pht_fold, history._ctb_fold) == \
        _reference_history(history)
    # Indices derived from the folds match a freshly rebuilt history.
    rebuilt = PathHistory()
    rebuilt.restore(snapshot)
    assert history.pht_index(64) == rebuilt.pht_index(64)
    assert history.ctb_index(64) == rebuilt.ctb_index(64)
