"""Engine fast paths against their references: throughput and identity.

The acceptance demonstration for :mod:`repro.engine.batched`: the same
catalog trace is simulated in full detail by the object engine and by
the batched core (``engine_mode="auto"``), and the measured throughputs
plus the full ``state_dict()`` comparison land in
``BENCH_engine_core.json`` at the repo root.  Functional warming has one
engine, so its leg measures what justifies the duplicated loop in
``Simulator.warm_run``: the hoisted bulk loop against calling its
per-record reference, ``warm_step``, on every record.  Every leg is timed
in CPU seconds of this process, and each ratio is the median of
per-round paired ratios (docs/PERFORMANCE.md, "Benchmark methodology").

The batched core was introduced with an *aspirational* detail target of
10x; the recorded number is the honestly achieved one.  In
pure Python the speedup is bounded by Amdahl's law on the event density:
~22 % of records are branches whose full model work (search walk, row
probe, training, move protocol) is inherent and shared by both engines,
and bulk-transfer busy windows require per-record preload advances
either way.  What the batched core eliminates is the per-record dispatch
for the quiet majority — measured below — while staying bit-identical
(asserted below, and gated by ``repro verify``).

docs/PERFORMANCE.md explains the fast/slow path contract and how to read
the file; CI's nightly job uploads it as an artifact.
"""

import statistics
import time

from common import write_bench
from repro.core.config import ZEC12_CONFIG_2
from repro.engine.batched import BatchedSimulator
from repro.engine.simulator import Simulator
from repro.workloads.catalog import workload_by_name

BENCH_WORKLOAD = "CB84"
DETAIL_SCALE = 0.25
WARM_SCALE = 0.35
ROUNDS = 7

#: Aspirational target the batched core was introduced with, for context.
TARGET_DETAIL_SPEEDUP = 10.0

#: Regression floors actually asserted: the batched core must beat the
#: object engine on the detailed path, and the hoisted ``warm_run`` loop
#: must beat the ``warm_step`` loop it duplicates, or it is not worth
#: keeping.
FLOOR_DETAIL_SPEEDUP = 1.1
FLOOR_BULK_WARM_SPEEDUP = 1.0


def _paired_throughputs(records, reference, fast):
    """Median CPU-time throughputs of two ``(make_sim, run)`` legs.

    Each of ``ROUNDS`` rounds runs both legs on fresh simulators, timed
    with ``time.process_time`` so other processes on the host do not
    count, and alternates which leg goes first so drift within a round
    lands on each leg equally often.  Returns the median records per CPU
    second of each leg, the median over rounds of the fast leg's
    throughput over the reference leg's in the same round, and each
    leg's final ``state_dict()``.
    """
    legs = (reference, fast)
    rates = ([], [])
    states = [None, None]
    for round_index in range(ROUNDS):
        order = (0, 1) if round_index % 2 == 0 else (1, 0)
        for index in order:
            make_sim, run = legs[index]
            sim = make_sim()
            started = time.process_time()
            run(sim, records)
            elapsed = time.process_time() - started
            rates[index].append(len(records) / elapsed)
            states[index] = sim.state_dict()
    ratios = [fast / slow for slow, fast in zip(*rates)]
    return (statistics.median(rates[0]), statistics.median(rates[1]),
            statistics.median(ratios), states)


def _warm_step_loop(sim, records):
    """The per-record reference that ``Simulator.warm_run`` must equal."""
    warm_step = sim.warm_step
    for record in records:
        warm_step(record)


def test_engine_core_throughput_and_identity():
    workload = workload_by_name(BENCH_WORKLOAD)
    detail_trace = list(workload.trace(scale=DETAIL_SCALE))
    warm_trace = list(workload.trace(scale=WARM_SCALE))

    detail_object, detail_batched, detail_speedup, detail_states = \
        _paired_throughputs(
            detail_trace,
            (lambda: Simulator(config=ZEC12_CONFIG_2),
             lambda sim, records: sim.run(records)),
            (lambda: Simulator(config=ZEC12_CONFIG_2, engine_mode="auto"),
             lambda sim, records: sim.run(records)),
        )
    warm_step, warm_bulk, warm_speedup, warm_states = _paired_throughputs(
        warm_trace,
        (lambda: Simulator(config=ZEC12_CONFIG_2), _warm_step_loop),
        (lambda: Simulator(config=ZEC12_CONFIG_2),
         lambda sim, records: sim.warm_run(records)),
    )

    detail_identical = detail_states[0] == detail_states[1]
    warm_identical = warm_states[0] == warm_states[1]

    # Escape statistics of one batched detailed run, for the record.
    sim = Simulator(config=ZEC12_CONFIG_2)
    batched = BatchedSimulator(sim)
    batched.feed(detail_trace)
    sim.finish()

    record = {
        "workload": workload.name,
        "config": ZEC12_CONFIG_2.name,
        "detail": {
            "scale": DETAIL_SCALE,
            "records": len(detail_trace),
            "object_records_per_second": round(detail_object),
            "batched_records_per_second": round(detail_batched),
            "speedup": round(detail_speedup, 2),
            "target_speedup": TARGET_DETAIL_SPEEDUP,
            "bit_identical": detail_identical,
        },
        "warm_run": {
            "scale": WARM_SCALE,
            "records": len(warm_trace),
            "step_records_per_second": round(warm_step),
            "bulk_records_per_second": round(warm_bulk),
            "speedup": round(warm_speedup, 2),
            "bit_identical": warm_identical,
        },
        "escapes": {
            "total": sum(batched.escape_counts.values()),
            "per_reason": dict(sorted(batched.escape_counts.items())),
            "fraction_of_records":
                sum(batched.escape_counts.values()) / len(detail_trace),
        },
        "rounds": ROUNDS,
    }
    output = write_bench("engine_core", record,
                         "benchmarks/bench_engine_core.py")

    print()
    print(f"detail: object {detail_object:,.0f} rec/CPU-s, "
          f"batched {detail_batched:,.0f} ({detail_speedup:.2f}x, "
          f"target {TARGET_DETAIL_SPEEDUP:.0f}x)")
    print(f"warm:   warm_step {warm_step:,.0f} rec/CPU-s, "
          f"warm_run {warm_bulk:,.0f} ({warm_speedup:.2f}x)")
    print(f"-> {output.name}")

    assert detail_identical, "detailed batched run diverged from object"
    assert warm_identical, "warm_run diverged from the warm_step loop"
    assert detail_speedup >= FLOOR_DETAIL_SPEEDUP, (
        f"detail speedup {detail_speedup:.2f}x < floor "
        f"{FLOOR_DETAIL_SPEEDUP}x"
    )
    assert warm_speedup >= FLOOR_BULK_WARM_SPEEDUP, (
        f"warm_run speedup {warm_speedup:.2f}x over warm_step < floor "
        f"{FLOOR_BULK_WARM_SPEEDUP}x"
    )
