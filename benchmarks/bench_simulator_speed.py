"""Raw simulator throughput — a true pytest-benchmark measurement.

Unlike the figure benches (which cache results on disk), the first two
benches measure the live simulation rate in records/second on a fixed
workload slice under the architected configuration, giving a regression
guard for the hot path.

The ``test_speed_pool_*`` pair then measures the experiment harness
end-to-end: the same cold-cache batch of runs executed serially
(``jobs=1``) and through the process pool (``jobs=`` CPU count).  On a
multicore host the parallel batch finishes in roughly ``1/cores`` of the
serial wall time.

These are pytest-benchmark regression guards, not the record of engine
throughput: that number is owned by ``bench_engine_core.py``, which
writes ``BENCH_engine_core.json``, and the docs quote only that file.
"""

import os

import pytest

from repro.core.config import ZEC12_CONFIG_1, ZEC12_CONFIG_2, ZEC12_CONFIG_3
from repro.engine.simulator import Simulator
from repro.experiments.pool import ExecutionLog, RunSpec, run_many
from repro.workloads.catalog import TABLE4_WORKLOADS, workload_by_name

#: The cold-cache batch the pool benches execute: 4 workloads x 3 configs.
POOL_BENCH_SCALE = 0.06
POOL_BENCH_SPECS = tuple(
    RunSpec(spec, config, scale=POOL_BENCH_SCALE)
    for spec in TABLE4_WORKLOADS[:4]
    for config in (ZEC12_CONFIG_1, ZEC12_CONFIG_2, ZEC12_CONFIG_3)
)


@pytest.fixture(scope="module")
def trace():
    return workload_by_name("TPF").trace(scale=0.06)


def test_speed_baseline_config(benchmark, trace):
    result = benchmark.pedantic(
        lambda: Simulator(ZEC12_CONFIG_1).run(trace), rounds=3, iterations=1
    )
    rate = len(trace) / benchmark.stats["mean"]
    print(f"\nconfig 1 simulation rate: {rate:,.0f} records/s")
    assert result.counters.instructions == len(trace)


def test_speed_btb2_config(benchmark, trace):
    result = benchmark.pedantic(
        lambda: Simulator(ZEC12_CONFIG_2).run(trace), rounds=3, iterations=1
    )
    rate = len(trace) / benchmark.stats["mean"]
    print(f"\nconfig 2 simulation rate: {rate:,.0f} records/s")
    assert result.counters.instructions == len(trace)


def _run_pool_batch(tmp_path, jobs: int) -> ExecutionLog:
    """One cold-cache execution of the bench batch at ``jobs`` workers."""
    os.environ["REPRO_RESULTS_CACHE"] = str(tmp_path / f"results-j{jobs}")
    log = ExecutionLog()
    results = run_many(POOL_BENCH_SPECS, jobs=jobs, log=log)
    assert len(results) == len(POOL_BENCH_SPECS)
    assert log.simulated == len(POOL_BENCH_SPECS)
    return log


def test_speed_pool_serial(benchmark, tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_RESULTS_CACHE", raising=False)
    log = benchmark.pedantic(
        lambda: _run_pool_batch(tmp_path, jobs=1), rounds=1, iterations=1
    )
    print(f"\nserial batch: {log.simulated} runs, "
          f"{log.batch_seconds:.1f} s wall, {log.throughput:,.0f} instr/s")


def test_speed_pool_parallel(benchmark, tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_RESULTS_CACHE", raising=False)
    jobs = os.cpu_count() or 1
    log = benchmark.pedantic(
        lambda: _run_pool_batch(tmp_path, jobs=jobs), rounds=1, iterations=1
    )
    print(f"\nparallel batch ({jobs} workers): {log.simulated} runs, "
          f"{log.batch_seconds:.1f} s wall, {log.throughput:,.0f} instr/s "
          "(simulated seconds sum across workers)")
