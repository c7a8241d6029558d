"""Tests for the Table 4 workload catalog."""

import pytest

from repro.trace.stats import collect_stats
from repro.workloads.catalog import (
    TABLE4_WORKLOADS,
    default_scale,
    workload_by_name,
)


class TestCatalogShape:
    def test_thirteen_workloads(self):
        assert len(TABLE4_WORKLOADS) == 13

    def test_names_unique(self):
        names = [spec.name for spec in TABLE4_WORKLOADS]
        assert len(set(names)) == 13

    def test_paper_counters_verbatim(self):
        spec = workload_by_name("DayTrader DBServ")
        assert spec.paper_unique_branches == 34_819
        assert spec.paper_unique_taken == 22_217

    def test_mix_trace_has_second_program(self):
        spec = workload_by_name("WASDB+CBW2")
        assert spec.mix_shape is not None
        assert len(spec.build_programs()) == 2

    def test_other_traces_single_program(self):
        spec = workload_by_name("CB84")
        assert len(spec.build_programs()) == 1

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError):
            workload_by_name("SPEC2017")

    def test_larger_paper_counts_get_larger_pools(self):
        small = workload_by_name("TPF")
        large = workload_by_name("Z/OS Trade6")
        assert large.shape.functions > small.shape.functions


class TestTraceGeneration:
    def test_scaled_length_floor(self):
        spec = TABLE4_WORKLOADS[0]
        assert spec.scaled_length(0.000001) == 50_000
        assert spec.scaled_length(1.0) == spec.trace_length

    def test_generation_is_deterministic(self):
        spec = workload_by_name("TPF")
        a = spec.generate(scale=0.06)
        b = spec.generate(scale=0.06)
        assert a == b

    def test_trace_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        spec = workload_by_name("TPF")
        first = spec.trace(scale=0.06)
        cached_files = list(tmp_path.glob("*.ztrc"))
        assert len(cached_files) == 1
        second = spec.trace(scale=0.06)
        assert first == second

    def test_cache_disabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        spec = workload_by_name("TPF")
        trace = spec.trace(scale=0.06)
        assert trace
        assert spec.trace_path(scale=0.06) is None

    def test_workload_is_capacity_relevant_even_scaled(self):
        # Even a scaled slice of a catalog workload must keep a unique
        # taken-branch population comparable to first-level capacity —
        # that is what the pool floor in scaled_functions() protects.
        spec = workload_by_name("DayTrader DBServ")
        stats = collect_stats(spec.generate(scale=0.2))
        assert stats.unique_taken_branch_addresses > 2_000

    def test_mix_trace_generates(self):
        spec = workload_by_name("WASDB+CBW2")
        trace = spec.generate(scale=0.03)
        assert len(trace) == spec.scaled_length(0.03)


class TestScaleEnv:
    def test_default_scale_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert default_scale() == 1.0

    def test_scale_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        assert default_scale() == 0.25

    def test_invalid_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ValueError):
            default_scale()
