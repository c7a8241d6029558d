"""Tests for the parallel execution layer and cache concurrency.

Covers the ISSUE-1 guarantees: ``run_many`` returns results identical to
serial ``run_workload`` calls, duplicate specs are deduplicated, corrupt
or truncated cache entries are ignored and re-simulated, and two processes
racing on the same fingerprint leave a valid cache behind.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading

import pytest

from repro.core.config import ZEC12_CONFIG_1, ZEC12_CONFIG_2, ZEC12_CONFIG_3
from repro.experiments.common import (
    RunResult,
    load_cached_run,
    run_workload,
    store_cached_run,
)
from repro.experiments.pool import (
    ExecutionLog,
    RunSpec,
    effective_jobs,
    parallel_map,
    run_many,
)
from repro.workloads.catalog import workload_by_name

SPEC = workload_by_name("TPF")
CB84 = workload_by_name("CB84")
SCALE = 0.04


class TestEffectiveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert effective_jobs(None) == 1

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert effective_jobs(3) == 3

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert effective_jobs(None) == 5

    def test_zero_means_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert effective_jobs(0) == (os.cpu_count() or 1)
        assert effective_jobs(-2) == (os.cpu_count() or 1)


class TestRunMany:
    def test_matches_serial_run_workload(self):
        specs = [
            RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE),
            RunSpec(SPEC, ZEC12_CONFIG_2, scale=SCALE),
        ]
        batch = run_many(specs)
        serial = [
            run_workload(SPEC, ZEC12_CONFIG_1, scale=SCALE),
            run_workload(SPEC, ZEC12_CONFIG_2, scale=SCALE),
        ]
        assert batch == serial

    def test_parallel_matches_serial(self):
        # jobs=2 exercises the actual process pool even on one CPU.
        specs = [
            RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE),
            RunSpec(SPEC, ZEC12_CONFIG_2, scale=SCALE),
        ]
        parallel = run_many(specs, jobs=2)
        serial = [run_workload(s.workload, s.config, scale=SCALE) for s in specs]
        assert parallel == serial

    def test_deduplicates_and_preserves_order(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path))
        spec = RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE)
        other = RunSpec(SPEC, ZEC12_CONFIG_2, scale=SCALE)
        log = ExecutionLog()
        results = run_many([spec, other, spec, spec], log=log)
        assert len(results) == 4
        assert results[0] == results[2] == results[3]
        assert results[1].config == ZEC12_CONFIG_2.name
        assert log.simulated == 2  # two unique fingerprints, not four
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_cache_hits_skip_simulation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path))
        spec = RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE)
        run_many([spec])
        log = ExecutionLog()
        results = run_many([spec], log=log)
        assert log.cache_hits == 1 and log.simulated == 0
        assert results[0].instructions == SPEC.scaled_length(SCALE)

    def test_observability_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path))
        log = ExecutionLog()
        (result,) = run_many([RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE)], log=log)
        assert result.wall_seconds > 0
        assert result.instructions_per_second > 0
        assert result.worker  # attributed to some process
        assert log.simulated_instructions == result.instructions
        assert log.batches == 1 and log.requested == 1


class TestCacheRobustness:
    def _key(self):
        return RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE).fingerprint()

    def test_corrupt_entry_is_resimulated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path))
        path = tmp_path / f"{self._key()}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ this is not json")
        result = run_workload(SPEC, ZEC12_CONFIG_1, scale=SCALE)
        assert result.instructions == SPEC.scaled_length(SCALE)
        # The corrupt entry was overwritten with a valid one.
        assert json.loads(path.read_text())["workload"] == SPEC.name

    def test_truncated_entry_is_resimulated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path))
        good = run_workload(SPEC, ZEC12_CONFIG_1, scale=SCALE)
        path = tmp_path / f"{self._key()}.json"
        path.write_text(path.read_text()[:40])  # simulate a torn write
        assert load_cached_run(self._key()) is None
        again = run_workload(SPEC, ZEC12_CONFIG_1, scale=SCALE)
        assert again == good

    def test_missing_required_fields_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path))
        path = tmp_path / f"{self._key()}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"workload": SPEC.name, "instructions": 5}))
        assert load_cached_run(self._key()) is None

    def test_old_schema_without_observability_loads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path))
        run = run_workload(SPEC, ZEC12_CONFIG_1, scale=SCALE)
        path = tmp_path / f"{self._key()}.json"
        payload = json.loads(path.read_text())
        del payload["wall_seconds"], payload["worker"]
        payload["future_field"] = 123  # unknown keys are dropped, not fatal
        path.write_text(json.dumps(payload))
        cached = load_cached_run(self._key())
        assert cached == run  # observability excluded from equality
        assert cached.wall_seconds == 0.0 and cached.worker == ""

    def test_store_is_atomic_no_temp_residue(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path))
        run = run_workload(SPEC, ZEC12_CONFIG_1, scale=SCALE)
        store_cached_run("deadbeef", run)
        assert not list(tmp_path.glob("*.tmp*"))
        assert load_cached_run("deadbeef") == run


def _race_worker(cache_dir: str, queue) -> None:
    """Child-process body for the write-race test (module-level: picklable)."""
    os.environ["REPRO_RESULTS_CACHE"] = cache_dir
    os.environ.pop("REPRO_SCALE", None)
    result = run_workload(SPEC, ZEC12_CONFIG_1, scale=SCALE)
    queue.put((result.workload, result.cpi, result.instructions))


class TestConcurrentWriters:
    def test_two_processes_race_safely(self, tmp_path, monkeypatch):
        """Two processes simulating the same fingerprint concurrently both
        succeed, agree on the result, and leave exactly one valid entry."""
        cache_dir = str(tmp_path / "shared")
        monkeypatch.setenv("REPRO_RESULTS_CACHE", cache_dir)
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        workers = [
            context.Process(target=_race_worker, args=(cache_dir, queue))
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        outcomes = [queue.get(timeout=120) for _ in workers]
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        assert outcomes[0] == outcomes[1]
        entries = list((tmp_path / "shared").glob("*.json"))
        assert len(entries) == 1
        payload = json.loads(entries[0].read_text())  # valid, not torn
        assert payload["workload"] == SPEC.name
        assert not list((tmp_path / "shared").glob("*.tmp*"))


class TestThreadWriters:
    def test_threads_generating_one_trace_all_publish_it(
            self, tmp_path, monkeypatch):
        """``run_many`` on the thread backend over a cold trace cache.

        The three runs share one trace, so each worker thread generates it
        and publishes the cache file.  A barrier holds every writer between
        its write and its rename, so all three scratch files exist at once:
        with a scratch name shared by the process's threads, the first
        rename moves the others' file and their renames fail with
        ``FileNotFoundError``.
        """
        traces = tmp_path / "traces"
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(traces))
        all_written = threading.Barrier(3, timeout=60)
        real_replace = os.replace

        def replace_after_all_wrote(source, target):
            if str(target).endswith(".ztrc"):
                all_written.wait()
            real_replace(source, target)

        monkeypatch.setattr(os, "replace", replace_after_all_wrote)
        configs = (ZEC12_CONFIG_1, ZEC12_CONFIG_2, ZEC12_CONFIG_3)
        results = run_many([RunSpec(SPEC, config, scale=0.02)
                            for config in configs],
                           jobs=3, backend="thread")
        assert [result.config for result in results] == [
            config.name for config in configs]
        published = [path.name for path in traces.iterdir()]
        assert len(published) == 1 and published[0].endswith(".ztrc")
        # The published file is a whole trace: a fresh run streams it.
        monkeypatch.setattr(os, "replace", real_replace)
        monkeypatch.setenv("REPRO_RESULTS_CACHE", "off")
        assert run_workload(SPEC, ZEC12_CONFIG_2, scale=0.02) == results[1]


class TestParallelMap:
    def test_serial_and_parallel_agree(self):
        items = list(range(6))
        assert parallel_map(_square, items) == [i * i for i in items]
        assert parallel_map(_square, items, jobs=2) == [i * i for i in items]

    def test_empty(self):
        assert parallel_map(_square, [], jobs=4) == []


def _square(value: int) -> int:
    return value * value


class TestSessionSummaryRendering:
    def test_render_run_summary_lines(self, tmp_path, monkeypatch):
        from repro.metrics.report import render_run_summary

        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path))
        log = ExecutionLog()
        run_many([RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE)], log=log)
        run_many([RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE)], log=log)
        lines = render_run_summary(log)
        assert any("1 served from cache" in line for line in lines)
        assert all(line.startswith("_") and line.endswith("_") for line in lines)

    def test_render_empty_log(self):
        from repro.metrics.report import render_run_summary

        assert render_run_summary(ExecutionLog()) == ["_runs: none requested._"]

    def test_registry_adds_per_backend_dispatch_lines(
            self, tmp_path, monkeypatch):
        """With the session REGISTRY passed in, the summary reports each
        backend's dispatched count, utilization, and queue-vs-execute
        split sourced from the pool's recorded histograms."""
        from repro.metrics.report import render_run_summary
        from repro.telemetry.metrics import REGISTRY

        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path))
        REGISTRY.reset()
        log = ExecutionLog()
        run_many([RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE),
                  RunSpec(SPEC, ZEC12_CONFIG_2, scale=SCALE)],
                 log=log, jobs=2, backend="process")
        lines = render_run_summary(log, REGISTRY)
        backend_lines = [l for l in lines if "backend process:" in l]
        assert len(backend_lines) == 1
        assert "2 dispatched" in backend_lines[0]
        assert "utilization" in backend_lines[0]
        assert "queue wait" in backend_lines[0]
        assert "execute" in backend_lines[0]
        assert all(line.startswith("_") and line.endswith("_")
                   for line in lines)

    def test_registry_without_dispatch_metrics_adds_nothing(self):
        from repro.metrics.report import render_run_summary
        from repro.telemetry.metrics import MetricsRegistry

        log = ExecutionLog()
        assert render_run_summary(log, MetricsRegistry()) \
            == render_run_summary(log)


class TestAuditedRuns:
    def test_audited_run_matches_unaudited(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path))
        plain = run_workload(SPEC, ZEC12_CONFIG_1, scale=SCALE)
        audited = run_workload(SPEC, ZEC12_CONFIG_1, scale=SCALE, audit=True)
        # Scientific payload identical (observability fields excluded).
        assert audited == plain

    def test_audited_run_bypasses_cache_read_but_stores(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path))
        key = RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE).fingerprint()
        # Poison the cache: a plausible but wrong entry.  An unaudited run
        # would serve it; an audited run must re-simulate past it.
        bogus = RunResult(
            workload=SPEC.name, config=ZEC12_CONFIG_1.name, cpi=123.0,
            instructions=1, branches=1, outcome_fractions={},
            preload_stats={},
        )
        store_cached_run(key, bogus)
        assert run_workload(SPEC, ZEC12_CONFIG_1, scale=SCALE).cpi == 123.0
        audited = run_workload(SPEC, ZEC12_CONFIG_1, scale=SCALE, audit=True)
        assert audited.cpi != 123.0
        # ... and the fresh result was published over the bogus entry.
        assert load_cached_run(key) == audited

    def test_env_var_enables_auditing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path))
        key = RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE).fingerprint()
        bogus = RunResult(
            workload=SPEC.name, config=ZEC12_CONFIG_1.name, cpi=123.0,
            instructions=1, branches=1, outcome_fractions={},
            preload_stats={},
        )
        store_cached_run(key, bogus)
        monkeypatch.setenv("REPRO_AUDIT", "1")
        assert run_workload(SPEC, ZEC12_CONFIG_1, scale=SCALE).cpi != 123.0

    def test_run_many_audited_specs_skip_cache_reads(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path))
        spec = RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE)
        run_many([spec])  # warm the cache
        log = ExecutionLog()
        audited_spec = RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE, audit=True)
        (result,) = run_many([audited_spec], log=log)
        assert log.cache_hits == 0 and log.simulated == 1
        (unaudited,) = run_many([spec], log=log)
        assert log.cache_hits == 1
        assert result == unaudited

    def test_audited_runs_counted_as_bypassed_not_missed(
        self, tmp_path, monkeypatch
    ):
        """Audited runs never consult the cache; the log must attribute
        them to ``audit_bypassed`` so the session hit rate is computed
        over cache-eligible runs only."""
        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path))
        plain = RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE)
        audited = RunSpec(SPEC, ZEC12_CONFIG_2, scale=SCALE, audit=True)
        run_many([plain])  # warm the cache for the unaudited spec
        log = ExecutionLog()
        run_many([plain, audited], log=log)
        assert log.requested == 2
        assert log.audit_bypassed == 1
        assert log.cache_eligible == 1
        assert log.cache_hits == 1  # 100% over eligible, not 50% over all

    def test_env_audit_counts_as_bypassed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_AUDIT", "1")
        log = ExecutionLog()
        run_many([RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE)], log=log)
        assert log.audit_bypassed == 1 and log.cache_eligible == 0
