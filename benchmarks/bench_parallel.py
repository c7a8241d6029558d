"""Checkpoint-parallel fan-out: interval-scaling curve and speedup.

The acceptance demonstration for ``repro.sampling.parallel``: one serial
detailed run of TPF against checkpoint-parallel runs at K in {1, 2, 4, 8}
slices, asserting the stitched results are **bit-identical** to serial at
every K and that K=4 is **>= 2.5x** faster on the warm-store fan-out.
The measured numbers — serial wall time, per-K critical-path times,
speedups, and checkpoint traffic — land in ``BENCH_parallel.json`` at the
repo root.

Two timings are reported per K:

* ``cold_seconds`` — first run against an empty store: the producer pass
  steps the detailed model to every slice boundary (inherently serial),
  so the cold run costs roughly serial time plus the fan-out.
* ``warm_seconds`` — rerun with the boundary states on disk: the producer
  steps **zero** records and the run is just the fan-out.  This is the
  regime the subsystem exists for (engine bisection, config sweeps over
  anything downstream of the trace, repeated verification).

Speedup is serial time over the **critical path** (producer seconds plus
the slowest slice's in-worker CPU seconds): the wall-clock lower bound
with one core per slice, which observed wall time converges to on a host
with >= K idle cores.  Reporting the critical path keeps the curve a
property of the decomposition rather than of the core count of the
machine running the bench — a single-core CI runner measures the same
figure a 16-core workstation does.  Both sides are measured
**disk-to-result**: the serial baseline decodes the cached trace before
simulating, because every worker likewise streams and decodes its own
slice — excluding the decode from one side only would skew the ratio.

This bench always runs TPF at full scale (``scale=1``), ignoring
``REPRO_SCALE``: near-linear scaling in K is the claim, and the fixed
per-slice overheads (state load, trace seek) only amortize over
Table-4-length traces.
"""

import time

from common import write_bench
from repro.core.config import ZEC12_CONFIG_2
from repro.engine.simulator import simulate
from repro.sampling import CheckpointStore, ParallelPlan, TraceSource, run_parallel
from repro.trace.reader import load_trace
from repro.workloads.catalog import workload_by_name

BENCH_WORKLOAD = "TPF"
BENCH_SCALE = 1.0
SLICE_COUNTS = (1, 2, 4, 8)
REQUIRED_SPEEDUP_AT_4 = 2.5


def test_parallel_interval_scaling(benchmark, tmp_path):
    spec = workload_by_name(BENCH_WORKLOAD)
    path = spec.trace_path(BENCH_SCALE)  # warm the on-disk trace cache (untimed)
    assert path is not None, "bench needs the on-disk trace cache"
    source = TraceSource(spec, BENCH_SCALE)

    # CPU seconds, matching the per-slice accounting inside the workers.
    start = time.process_time()
    trace = load_trace(path)
    serial = simulate(trace, config=ZEC12_CONFIG_2)
    serial_seconds = time.process_time() - start

    # Slices run one at a time (jobs=1) so per-slice CPU accounting is
    # uncontended — concurrent workers time-sharing the bench host's cores
    # would inflate each other's cache-miss costs and turn the curve into
    # a property of the machine.  Cross-process concurrency correctness is
    # covered by the `repro verify` parallel gate, not this bench.
    curve = {}
    for workers in SLICE_COUNTS:
        store = CheckpointStore(tmp_path / f"k{workers}")
        kwargs = dict(config=ZEC12_CONFIG_2, plan=ParallelPlan(workers),
                      checkpoint_store=store, backend="process", jobs=1)
        cold = run_parallel(source, **kwargs)
        warms = [run_parallel(source, **kwargs) for _ in range(2)]
        for stitched in (cold, *warms):
            assert stitched.result.counters.state_dict() == \
                serial.counters.state_dict(), f"K={workers} not bit-identical"
            assert stitched.cpi == serial.cpi
        # The store made the producer free on the reruns.
        assert all(w.produced_records == 0 for w in warms)
        warm_seconds = min(w.critical_path_seconds for w in warms)
        curve[workers] = {
            "slices": len(cold.outcomes),
            "cold_seconds": round(cold.critical_path_seconds, 3),
            "cold_produce_seconds": round(cold.produce_seconds, 3),
            "warm_seconds": round(warm_seconds, 3),
            "warm_speedup": round(serial_seconds / warm_seconds, 2),
            "checkpoints_saved": cold.checkpoints_saved,
            "checkpoints_loaded": warms[0].checkpoints_loaded,
        }

    # The benchmark fixture records the headline configuration (K=4, warm)
    # as one more observation; the asserted figure is the curve's.
    store4 = CheckpointStore(tmp_path / "k4")

    def warm_fanout():
        return run_parallel(source, config=ZEC12_CONFIG_2,
                            plan=ParallelPlan(4), checkpoint_store=store4,
                            backend="process", jobs=1)

    stitched = benchmark.pedantic(warm_fanout, rounds=1, iterations=1)
    assert stitched.result.counters.state_dict() == \
        serial.counters.state_dict()
    speedup_at_4 = curve[4]["warm_speedup"]

    record = {
        "workload": BENCH_WORKLOAD,
        "scale": BENCH_SCALE,
        "config": ZEC12_CONFIG_2.name,
        "records": len(trace),
        "backend": "process",
        "serial_seconds": round(serial_seconds, 3),
        "serial_cpi": serial.cpi,
        "parallel_cpi": stitched.cpi,
        "bit_identical": True,
        "speedup_at_4": round(speedup_at_4, 2),
        "speedup_measure": "serial_seconds / critical_path_seconds "
                           "(producer + slowest slice; wall-clock bound "
                           "with one core per slice)",
        "curve": curve,
    }
    output = write_bench("parallel", record, "benchmarks/bench_parallel.py")

    print()
    print(f"serial: {serial_seconds:.1f} s over {len(trace):,} records")
    for workers, row in curve.items():
        print(f"  K={workers}: warm {row['warm_seconds']:.1f} s "
              f"({row['warm_speedup']:.1f}x), cold {row['cold_seconds']:.1f} s")
    print(f"-> {output.name}")

    assert speedup_at_4 >= REQUIRED_SPEEDUP_AT_4, \
        f"warm K=4 speedup {speedup_at_4:.2f}x < {REQUIRED_SPEEDUP_AT_4}x"
