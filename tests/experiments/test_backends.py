"""Execution backends and the parallel-spec cache isolation guarantees."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.config import ZEC12_CONFIG_1, ZEC12_CONFIG_2
from repro.experiments.backends import (
    BACKENDS,
    ProcessBackend,
    SerialBackend,
    default_backend_name,
    resolve_backend,
)
from repro.experiments.common import load_cached_run, run_workload
from repro.experiments.pool import ExecutionLog, RunSpec, run_many
from repro.sampling import ParallelPlan
from repro.workloads.catalog import workload_by_name

SPEC = workload_by_name("TPF")
SCALE = 0.04


def _square(value: int) -> int:
    return value * value


def _process_name(_value) -> str:
    return multiprocessing.current_process().name


class TestBackendRegistry:
    def test_registry_names(self):
        assert set(BACKENDS) == {"serial", "thread", "process"}

    def test_resolve_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None).name == "process"
        assert resolve_backend("serial").name == "serial"
        instance = SerialBackend()
        assert resolve_backend(instance) is instance
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        assert default_backend_name() == "serial"
        assert resolve_backend(None).name == "serial"
        # Explicit name still beats the environment.
        assert resolve_backend("process").name == "process"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("quantum")


class TestBackendMap:
    @pytest.mark.parametrize("name", ["serial", "thread", "process"])
    def test_order_preserving(self, name):
        items = list(range(8))
        assert BACKENDS[name].map(_square, items, jobs=3) == \
            [i * i for i in items]

    def test_empty_items(self):
        assert ProcessBackend().map(_square, [], jobs=4) == []

    def test_process_backend_degrades_when_trivial(self):
        # One item or one job: no pool is spun up — the work happens here.
        assert ProcessBackend().map(_process_name, [0], jobs=8) == \
            [multiprocessing.current_process().name]
        names = ProcessBackend().map(_process_name, [0, 1], jobs=1)
        assert names == [multiprocessing.current_process().name] * 2

    def test_thread_backend_shares_the_address_space(self):
        from repro.experiments.backends import ThreadBackend

        seen = []
        ThreadBackend().map(seen.append, list(range(6)), jobs=3)
        assert sorted(seen) == list(range(6))

    def test_process_backend_actually_forks(self):
        names = ProcessBackend().map(_process_name, list(range(4)), jobs=2)
        assert all(name != multiprocessing.current_process().name
                   for name in names)


class TestParallelFingerprintIsolation:
    """Satellite 4: serial and parallel runs never share a cache slot."""

    def test_parallel_payload_extends_the_fingerprint(self):
        base = RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE).fingerprint()
        par = RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE,
                      parallel=ParallelPlan(4), backend="serial").fingerprint()
        assert base != par
        # K and backend are both part of the slot identity.
        assert par != RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE,
                              parallel=ParallelPlan(8),
                              backend="serial").fingerprint()
        assert par != RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE,
                              parallel=ParallelPlan(4),
                              backend="process").fingerprint()

    def test_backend_alone_does_not_change_serial_fingerprints(self):
        """For serial runs the backend is execution plumbing, not identity:
        historical cache entries must keep hitting."""
        base = RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE).fingerprint()
        assert base == RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE,
                               backend="serial").fingerprint()

    def test_serial_hit_never_served_for_parallel_spec(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path))
        serial_spec = RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE)
        run_many([serial_spec])  # warm the serial slot
        log = ExecutionLog()
        parallel_spec = RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE,
                                parallel=ParallelPlan(2), backend="serial")
        (result,) = run_many([parallel_spec], log=log)
        assert log.cache_hits == 0 and log.simulated == 1
        assert result.parallel is not None  # genuinely ran parallel

    def test_parallel_hit_never_served_for_serial_spec(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path))
        parallel_spec = RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE,
                                parallel=ParallelPlan(2), backend="serial")
        run_many([parallel_spec])  # warm the parallel slot
        log = ExecutionLog()
        serial_spec = RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE)
        (result,) = run_many([serial_spec], log=log)
        assert log.cache_hits == 0 and log.simulated == 1
        assert result.parallel is None  # genuinely ran serial

    def test_cached_parallel_provenance_round_trips(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path))
        spec = RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE,
                       parallel=ParallelPlan(2), backend="serial")
        (fresh,) = run_many([spec])
        cached = load_cached_run(spec.fingerprint())
        assert cached == fresh
        assert cached.parallel == fresh.parallel
        assert cached.parallel["exact"] is True


class TestParallelRunsThroughThePool:
    def test_exact_parallel_equals_serial_run_result(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path))
        serial = run_workload(SPEC, ZEC12_CONFIG_2, scale=SCALE)
        parallel = run_workload(SPEC, ZEC12_CONFIG_2, scale=SCALE,
                                parallel=ParallelPlan(4), backend="serial")
        # The scientific payload is equal; provenance rides outside
        # equality exactly so this gate can be expressed as ==.
        assert parallel == serial
        assert parallel.parallel["mode"] == "exact"
        assert parallel.parallel["slices"] == 4

    def test_parallel_specs_execute_in_the_orchestrator(
        self, tmp_path, monkeypatch
    ):
        """A parallel spec inside a pooled batch must not be shipped to a
        daemonic pool worker (which cannot fan out); it runs locally."""
        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path))
        specs = [
            RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE),
            RunSpec(SPEC, ZEC12_CONFIG_2, scale=SCALE),
            RunSpec(SPEC, ZEC12_CONFIG_2, scale=SCALE,
                    parallel=ParallelPlan(2), backend="process"),
        ]
        results = run_many(specs, jobs=2)
        assert results[2] == results[1]  # exact mode: == its serial twin
        assert results[2].parallel is not None

    def test_audited_parallel_spec_is_refused(self):
        with pytest.raises(ValueError, match="audited runs cannot"):
            run_workload(SPEC, ZEC12_CONFIG_1, scale=SCALE, audit=True,
                         parallel=ParallelPlan(2), backend="serial")

    def test_run_many_backend_argument_controls_dispatch(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path))
        specs = [
            RunSpec(SPEC, ZEC12_CONFIG_1, scale=SCALE),
            RunSpec(SPEC, ZEC12_CONFIG_2, scale=SCALE),
        ]
        through_serial = run_many(specs, jobs=2, backend="serial")
        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path / "other"))
        through_process = run_many(specs, jobs=2, backend="process")
        assert through_serial == through_process
