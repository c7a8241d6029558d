"""Metamorphic invariances: transforms that must not change behavior."""

import pytest

from repro.core.config import ZEC12_CONFIG_2
from repro.engine.params import DEFAULT_TIMING
from repro.engine.simulator import Simulator
from repro.oracle.metamorphic import (
    RELABEL_GRANULE,
    permute_regions,
    relabel,
    run_counters,
)
from repro.predictors.conformance import check_relabel
from repro.predictors.registry import create_predictor
from repro.sampling import SamplingPlan, run_sampled

from tests.conftest import BASE, loop_trace

REGION = 1 << 30


def fingerprint(trace: list) -> dict:
    """The full address-free fingerprint of a paper-stack run."""
    return run_counters(create_predictor("paper", ZEC12_CONFIG_2).run(trace))


def two_region_trace() -> list:
    """Two program modules in distinct coarse address regions."""
    first = loop_trace(iterations=60, start=BASE)
    second = loop_trace(iterations=40, start=BASE + REGION + 0x40)
    return first + second + first[: len(first) // 2]


class TestRelabel:
    def test_rejects_unaligned_offset(self):
        with pytest.raises(ValueError):
            relabel(loop_trace(2), offset=RELABEL_GRANULE // 2)

    def test_relabel_preserves_every_counter(self):
        # The conformance battery's relabel check (+64 granules), which
        # compares the full fingerprint: counters and every statistic.
        problems = check_relabel(
            "paper", loop_trace(iterations=120), ZEC12_CONFIG_2,
            DEFAULT_TIMING,
        )
        assert problems == []

    def test_relabel_preserves_counters_on_multi_region_trace(self):
        trace = two_region_trace()
        moved = relabel(trace, offset=-16 * RELABEL_GRANULE)
        assert fingerprint(moved) == fingerprint(trace)


class TestRegionPermutation:
    def test_single_region_is_identity(self):
        trace = loop_trace(iterations=10)
        assert permute_regions(trace) == trace

    def test_rejects_index_disturbing_granularity(self):
        with pytest.raises(ValueError):
            permute_regions(loop_trace(2), region_bits=16)

    def test_module_permutation_preserves_counters(self):
        trace = two_region_trace()
        permuted = permute_regions(trace)
        assert permuted != trace  # the transform actually moved something
        assert fingerprint(trace) == fingerprint(permuted)


class TestConcatenationIsContextSwitch:
    def test_concat_equals_snapshot_resume(self):
        first = loop_trace(iterations=80, start=BASE)
        second = loop_trace(iterations=50, start=BASE + 4 * RELABEL_GRANULE)

        whole = Simulator(config=ZEC12_CONFIG_2).run(first + second)

        front = Simulator(config=ZEC12_CONFIG_2)
        for record in first:
            front.step(record)
        state = front.state_dict()

        resumed = Simulator(config=ZEC12_CONFIG_2)
        resumed.load_state_dict(state)
        for record in second:
            resumed.step(record)
        result = resumed.finish()

        assert result.counters.state_dict() == whole.counters.state_dict()


class TestSampledAgreesWithFull:
    def test_sampled_cpi_within_confidence_interval(self):
        trace = loop_trace(iterations=3000)
        full = Simulator(config=ZEC12_CONFIG_2).run(trace)
        full_cpi = full.counters.cycles / full.counters.instructions

        plan = SamplingPlan(interval=500, period=2500, warmup=500, seed=5)
        sampled = run_sampled(trace, config=ZEC12_CONFIG_2, plan=plan)

        # The CI covers sampling error; the cold-start transient (absent
        # from warmed measured intervals) adds a small deterministic bias,
        # so allow it half a percent on top.  The 2 % at-scale accuracy
        # claim is pinned separately by benchmarks/bench_sampling.py.
        assert abs(sampled.cpi - full_cpi) <= (
            sampled.cpi_ci + 0.005 * full_cpi
        )
