"""Adversarial BTB-probe workloads: geometry, generation, and catalog wiring.

Each family is a constructed microbenchmark whose trace properties are
pure functions of its site geometry, so the tests check the *engineered*
properties directly: capacity overcommit, single-row residency,
alternating indirect targets, page interleaving — and that every trace is
a perfectly chained control-flow walk (no accidental discontinuities).
"""

import pytest

from repro.isa.opcodes import BranchKind
from repro.trace.reader import open_trace
from repro.workloads.adversarial import (
    ADVERSARIAL_WORKLOADS,
    AdversarialSpec,
    corpus_trace,
)
from repro.workloads.catalog import workload_by_name
from tests.conftest import assert_contiguous

_BTB1_CAPACITY = 4096
_BTB1_ROWS = 1024
_ROW_BYTES = 32


def _by_family(family):
    spec, = [s for s in ADVERSARIAL_WORKLOADS if s.family == family]
    return spec


class TestCatalog:
    def test_four_families_registered(self):
        assert [spec.family for spec in ADVERSARIAL_WORKLOADS] == [
            "capacity", "associativity", "aliasing", "thrash"]
        assert all(spec.name.startswith("adversarial/")
                   for spec in ADVERSARIAL_WORKLOADS)

    @pytest.mark.parametrize("spec", ADVERSARIAL_WORKLOADS,
                             ids=lambda spec: spec.family)
    def test_workload_by_name_resolves_each_family(self, spec):
        assert workload_by_name(spec.name) is spec

    def test_substring_lookup(self):
        assert workload_by_name("tracker-thrash").family == "thrash"
        assert workload_by_name("CAPACITY").family == "capacity"
        with pytest.raises(KeyError):
            workload_by_name("nonexistent")

    def test_trace_path_regenerates_a_truncated_cache_file(self):
        """The adversarial probes share the catalog's validated cache: a
        truncated file is regenerated, not handed to a reader."""
        spec = workload_by_name("adversarial/btb-associativity")
        path = spec.trace_path(0.02)
        intact = path.read_bytes()
        path.write_bytes(intact[:len(intact) // 2])
        assert spec.trace_path(0.02) == path
        assert path.read_bytes() == intact
        with open_trace(path) as trace:
            assert list(trace) == spec.generate(0.02)


class TestGeneration:
    @pytest.mark.parametrize("spec", ADVERSARIAL_WORKLOADS,
                             ids=lambda spec: spec.family)
    def test_traces_are_contiguous_walks(self, spec):
        records = spec.generate(0.0)
        assert_contiguous(records)
        assert len(records) == spec.scaled_length(0.0)

    @pytest.mark.parametrize("spec", ADVERSARIAL_WORKLOADS,
                             ids=lambda spec: spec.family)
    def test_generation_is_deterministic(self, spec):
        assert spec.generate(0.0) == spec.generate(0.0)

    def test_scaled_length_floors_at_two_passes(self):
        spec = _by_family("capacity")
        floor = spec.scaled_length(0.0)
        assert floor >= 2 * spec.records_per_pass
        assert floor >= 4_000
        assert spec.scaled_length(1.0) >= spec.trace_length


class TestFamilyGeometry:
    def test_capacity_overcommits_the_btb1(self):
        spec = _by_family("capacity")
        assert spec.sites > _BTB1_CAPACITY
        assert spec.unique_branches == spec.sites

    def test_associativity_sites_share_one_row(self):
        spec = _by_family("associativity")
        rows = {(spec.site_address(site) >> 5) % _BTB1_ROWS
                for site in range(spec.sites)}
        assert len(rows) == 1
        assert spec.sites > 4  # overcommits the 4 ways

    def test_aliasing_targets_alternate_between_passes(self):
        spec = _by_family("aliasing")
        records = spec.generate(0.0)
        branches = [record for record in records
                    if record.kind is BranchKind.INDIRECT
                    and record.address == spec.site_address(0)
                    + spec.fillers * 4]
        targets = {record.target for record in branches}
        assert len(targets) == 2
        low, high = sorted(targets)
        assert high - low == 4

    def test_thrash_interleaves_across_pages(self):
        spec = _by_family("thrash")
        pages = {spec.site_address(site) >> 12 for site in range(spec.sites)}
        assert len(pages) == spec.groups == 8
        # Interleaved visit order: consecutive sites land in distinct pages.
        first_eight = [spec.site_address(site) >> 12 for site in range(8)]
        assert len(set(first_eight)) == 8


class TestSpecValidation:
    def test_block_overrunning_stride_is_rejected(self):
        with pytest.raises(ValueError, match="overruns stride"):
            AdversarialSpec(name="bad", family="capacity", sites=4,
                            fillers=20, stride=32, trace_length=1_000)

    def test_aliasing_without_fillers_is_rejected(self):
        with pytest.raises(ValueError, match="alternating entry points"):
            AdversarialSpec(name="bad", family="aliasing", sites=4,
                            fillers=0, stride=64, alternate_targets=True,
                            trace_length=1_000)


class TestFuzzCorpusTraces:
    def test_corpus_trace_is_deterministic(self):
        assert corpus_trace(5) == corpus_trace(5)
        assert corpus_trace(5) != corpus_trace(6)

    def test_corpus_traces_rotate_through_families(self):
        lengths = {len(corpus_trace(seed, 300)) for seed in range(4)}
        assert lengths  # every family yields a non-empty window
        for seed in range(4):
            assert len(corpus_trace(seed, 300)) <= 300
