"""The hoisted warming loop against its per-record reference.

Functional warming has one loop worth measuring: ``Simulator.warm_run``
duplicates ``warm_step`` with the record loop and every hot attribute
lookup hoisted into one frame, and this bench measures what justifies the
duplication.  The same catalog trace is warmed by the bulk loop and by
calling ``warm_step`` on every record; the throughputs, their ratio and
the full ``state_dict()`` comparison land in ``BENCH_engine_core.json`` at
the repo root.  Every leg is timed in CPU seconds of this process, and the
ratio is the median of per-round paired ratios (docs/PERFORMANCE.md,
"Benchmark methodology").  If the ratio drops to ~1.0x, the hoisted loop
no longer earns its code.

CI's nightly job uploads the file as an artifact.
"""

import statistics
import time

from common import write_bench
from repro.core.config import ZEC12_CONFIG_2
from repro.engine.simulator import Simulator
from repro.workloads.catalog import workload_by_name

BENCH_WORKLOAD = "CB84"
WARM_SCALE = 0.35
ROUNDS = 7

#: Regression floor actually asserted: the hoisted ``warm_run`` loop must
#: beat the ``warm_step`` loop it duplicates, or it is not worth keeping.
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
    warm_trace = list(workload.trace(scale=WARM_SCALE))

    warm_step, warm_bulk, warm_speedup, warm_states = _paired_throughputs(
        warm_trace,
        (lambda: Simulator(config=ZEC12_CONFIG_2), _warm_step_loop),
        (lambda: Simulator(config=ZEC12_CONFIG_2),
         lambda sim, records: sim.warm_run(records)),
    )
    warm_identical = warm_states[0] == warm_states[1]

    record = {
        "workload": workload.name,
        "config": ZEC12_CONFIG_2.name,
        "warm_run": {
            "scale": WARM_SCALE,
            "records": len(warm_trace),
            "step_records_per_second": round(warm_step),
            "bulk_records_per_second": round(warm_bulk),
            "speedup": round(warm_speedup, 2),
            "bit_identical": warm_identical,
        },
        "rounds": ROUNDS,
    }
    output = write_bench("engine_core", record,
                         "benchmarks/bench_engine_core.py")

    print()
    print(f"warm: warm_step {warm_step:,.0f} rec/CPU-s, "
          f"warm_run {warm_bulk:,.0f} ({warm_speedup:.2f}x)")
    print(f"-> {output.name}")

    assert warm_identical, "warm_run diverged from the warm_step loop"
    assert warm_speedup >= FLOOR_BULK_WARM_SPEEDUP, (
        f"warm_run speedup {warm_speedup:.2f}x over warm_step < floor "
        f"{FLOOR_BULK_WARM_SPEEDUP}x"
    )
