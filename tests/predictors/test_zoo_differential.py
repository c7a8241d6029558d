"""The lockstep oracle over the whole registry: coverage, teeth, shrinking.

Every registered predictor has an independently written reference model
(:data:`repro.oracle.ORACLES`); production and reference must agree on
random and adversarial traces; the mutation drill proves every oracle
notices a sabotaged replacement policy; and a planted row-aliasing bug in
the zoo's BIT demonstrates the full workflow — detect, then ddmin-shrink
to a minimal still-diverging trace.
"""

from dataclasses import replace

import pytest

from repro.audit.fuzz import build_trace
from repro.core.config import ZEC12_CONFIG_2
from repro.oracle import (
    ORACLES,
    Divergence,
    LockstepResult,
    lockstep,
    mutation_drill,
    shrink_divergence,
)
from repro.predictors import registry
from repro.predictors.base import SetAssociativeTable
from repro.predictors.registry import PredictorInfo, predictor_names
from repro.predictors.tage import TagePredictor
from repro.workloads.adversarial import corpus_trace

#: Small BIT geometry: heavy eviction pressure on short traces.
SMALL = replace(ZEC12_CONFIG_2, btb1_rows=8, btb1_ways=2, name="small BIT")


class TestLockstep:
    def test_reference_models_cover_the_whole_zoo(self):
        # A registered predictor without a reference model has no oracle.
        assert sorted(ORACLES) == sorted(predictor_names())

    @pytest.mark.parametrize("name", predictor_names())
    def test_random_trace_runs_clean(self, name):
        result = lockstep(name, build_trace(3, 400))
        assert not result.diverged
        assert result.branches > 0
        assert result.events_compared >= 4 * result.branches
        assert "no divergence" in result.report()

    @pytest.mark.parametrize("name", predictor_names())
    def test_adversarial_trace_runs_clean(self, name):
        result = lockstep(name, corpus_trace(2, 400))
        assert not result.diverged, result.report()

    @pytest.mark.parametrize("name", predictor_names())
    def test_eviction_pressure_runs_clean(self, name):
        result = lockstep(name, build_trace(5, 400), config=SMALL)
        assert not result.diverged, result.report()

    def test_predictor_without_reference_is_refused(self, monkeypatch):
        # Registering a model without a reference must fail loudly, not
        # silently compare nothing.
        monkeypatch.setitem(
            registry._REGISTRY, "unchecked",
            PredictorInfo("unchecked", "no reference model (test double)",
                          lambda config, timing, **_: TagePredictor(
                              config, timing)))
        with pytest.raises(ValueError, match="no reference model"):
            lockstep("unchecked", build_trace(1, 50))

    def test_divergence_report_is_actionable(self):
        divergence = Divergence(3, 0x4000, "taken",
                                "engine True != reference False")
        report = LockstepResult(
            predictor="tage", config="small BIT", records=4, branches=2,
            divergence=divergence, events_compared=9).report()
        assert "record 3" in report
        assert "0x4000" in report
        assert "cycle" not in report  # the zoo has no search clock
        assert "engine True != reference False" in report


class TestMutationDrill:
    def test_oracle_catches_sabotaged_lru_promotion(self):
        assert mutation_drill() == []
        # The sabotage is restored: every oracle runs clean again.
        for name in predictor_names():
            assert not lockstep(name, build_trace(5, 400),
                                config=SMALL).diverged


class TestPlantedAliasingBug:
    def test_detect_then_shrink_to_minimal_trace(self, monkeypatch):
        # Plant a row-aliasing bug in the production BIT only: the row
        # index collapses two congruence classes, so eviction decisions
        # drift from the (unpatched) reference model.
        monkeypatch.setattr(
            SetAssociativeTable, "row_index",
            lambda self, address: (address >> self.shift) % (self.rows // 2))
        trace = build_trace(7, 500)
        assert len(trace) == 498
        result = lockstep("tage", trace, config=SMALL)
        assert result.diverged
        assert result.divergence.cycle is None
        shrunk = shrink_divergence("tage", trace, config=SMALL)
        assert len(shrunk) == 4
        assert lockstep("tage", shrunk, config=SMALL).diverged

    def test_clean_again_after_the_bug_is_fixed(self):
        assert not lockstep("tage", build_trace(7, 500),
                            config=SMALL).diverged
