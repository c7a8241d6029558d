"""The paper stack's lockstep oracle: clean on main, teeth when mutated."""

import pytest

from repro.audit.fuzz import FUZZ_CONFIGS, build_trace
from repro.btb.storage import BranchTargetBuffer
from repro.core.config import ZEC12_CONFIG_1, ZEC12_CONFIG_2
from repro.oracle import drill, lockstep, shrink_divergence

from tests.conftest import loop_trace

SMALL = FUZZ_CONFIGS["small baseline"]


class TestCleanLockstep:
    def test_loop_trace_full_hierarchy(self):
        result = lockstep("paper", loop_trace(200), ZEC12_CONFIG_2)
        assert not result.diverged, result.report()
        assert result.branches == 200
        assert result.predictor == "paper"
        assert result.config == ZEC12_CONFIG_2.name
        # The oracle must actually be comparing, not vacuously passing:
        # per-event checks plus at least the end-of-run full-state walk.
        assert result.events_compared > result.branches

    def test_btb2less_config(self):
        result = lockstep("paper", loop_trace(100), ZEC12_CONFIG_1)
        assert not result.diverged, result.report()

    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_fuzz_traces_on_small_config(self, seed):
        trace = build_trace(seed, length=500)
        result = lockstep("paper", trace, SMALL)
        assert not result.diverged, result.report()

    @pytest.mark.slow
    @pytest.mark.fuzz
    @pytest.mark.parametrize("name", sorted(FUZZ_CONFIGS))
    def test_every_fuzz_config_is_conformant(self, name):
        for seed in range(4):
            trace = build_trace(0xD1F ^ seed, length=600)
            result = lockstep("paper", trace, FUZZ_CONFIGS[name])
            assert not result.diverged, result.report()


class TestMutationTeeth:
    def test_drill_catches_inverted_lru_touch(self):
        problems, caught = drill(("paper",))
        assert problems == [], "seeded LRU mutation went undetected"
        result = caught["paper"]
        assert result.diverged
        divergence = result.divergence
        assert "BTB" in divergence.structure or "row" in divergence.structure
        assert divergence.record_index < result.records
        report = divergence.report()
        assert "divergence at record" in report
        assert divergence.structure in report

    def test_monkeypatched_demotion_bug_is_caught_and_shrunk(
        self, monkeypatch
    ):
        # An independent sabotage from the drill's: used predictions never
        # refresh recency at all.
        monkeypatch.setattr(BranchTargetBuffer, "touch", lambda self, e: None)
        trace = None
        for seed in range(16):
            candidate = build_trace(0xBEEF ^ seed, length=400)
            if lockstep("paper", candidate, SMALL).diverged:
                trace = candidate
                break
        assert trace is not None, "no trace exposed the disabled LRU touch"
        assert len(trace) == 380
        shrunk = shrink_divergence("paper", trace, SMALL)
        assert len(shrunk) == 15
        assert lockstep("paper", shrunk, SMALL).diverged

    def test_sabotage_does_not_leak(self):
        # The drill (and any monkeypatching test above) must leave the
        # production class untouched for the rest of the suite.
        result = lockstep("paper", build_trace(99, length=300), SMALL)
        assert not result.diverged, result.report()


class TestDivergenceReporting:
    def test_report_names_structure_cycle_and_address(self):
        _, caught = drill(("paper",))
        divergence = caught["paper"].divergence
        assert divergence.cycle >= 0
        assert divergence.branch_address is not None
        report = divergence.report()
        assert f"0x{divergence.branch_address:x}" in report
        assert f"cycle {divergence.cycle}" in report
