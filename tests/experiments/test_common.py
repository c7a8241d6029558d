"""Tests for the experiment runner and its result cache."""

import json
import pickle

from repro.core.config import ZEC12_CONFIG_1, ZEC12_CONFIG_2
from repro.core.events import OutcomeKind
from repro.experiments.common import (
    RunResult,
    RunSpec,
    geometric_mean,
    mean,
    run_workload,
)
from repro.sampling import ParallelPlan, SamplingPlan
from repro.workloads.catalog import workload_by_name

SPEC = workload_by_name("TPF")
SCALE = 0.04


class TestRunWorkload:
    def test_produces_sane_result(self):
        result = run_workload(SPEC, ZEC12_CONFIG_1, scale=SCALE)
        assert result.workload == SPEC.name
        assert result.cpi > 0
        assert result.instructions == SPEC.scaled_length(SCALE)
        assert 0 < result.bad_fraction < 1

    def test_cache_hit_returns_identical_result(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path))
        first = run_workload(SPEC, ZEC12_CONFIG_1, scale=SCALE)
        assert list(tmp_path.glob("*.json"))
        second = run_workload(SPEC, ZEC12_CONFIG_1, scale=SCALE)
        assert first == second

    def test_cache_distinguishes_configs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path))
        run_workload(SPEC, ZEC12_CONFIG_1, scale=SCALE)
        run_workload(SPEC, ZEC12_CONFIG_2, scale=SCALE)
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_cache_payload_is_json(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_CACHE", str(tmp_path))
        run_workload(SPEC, ZEC12_CONFIG_1, scale=SCALE)
        (payload_file,) = tmp_path.glob("*.json")
        payload = json.loads(payload_file.read_text())
        assert payload["workload"] == SPEC.name
        assert "outcome_fractions" in payload


class TestRunSpecKeys:
    def test_cache_keys_are_pinned(self):
        # Absolute digests of result-cache entries written by earlier
        # trees: a change to the key computation fails here instead of
        # silently orphaning every cached run.
        tpf = workload_by_name("TPF")
        pinned = [
            (RunSpec(tpf, ZEC12_CONFIG_2, scale=0.02),
             "40aa5edd5b55c6ced0d6"),
            (RunSpec(workload_by_name("Z/OS DayTrader DBServ"),
                     ZEC12_CONFIG_2, scale=0.3),
             "88f9967bd7e7e470c196"),
            (RunSpec(workload_by_name("Z/OS DBServ benchmark"),
                     ZEC12_CONFIG_2, scale=0.3),
             "61768cab58b7ea047740"),
            (RunSpec(tpf, ZEC12_CONFIG_2, scale=0.02, engine_mode="auto"),
             "4a344c32f1bd0b853dcc"),
            (RunSpec(tpf, ZEC12_CONFIG_2, scale=0.02,
                     sampling=SamplingPlan()),
             "cffeba94febe3a642ee2"),
            (RunSpec(tpf, ZEC12_CONFIG_2, scale=0.02,
                     parallel=ParallelPlan(4), backend="serial"),
             "d2519de9d826171bbecb"),
            (RunSpec(tpf, ZEC12_CONFIG_2, scale=0.02, predictor="tage"),
             "592f7cc55718303b8ea2"),
            (RunSpec(tpf, ZEC12_CONFIG_1, scale=0.02),
             "2c74681dabda82bb60c1"),
        ]
        assert ([plan.fingerprint() for plan, _ in pinned]
                == [digest for _, digest in pinned])

    def test_plan_survives_a_pickle_round_trip(self):
        # What run_many ships to its pool workers.
        plan = RunSpec(SPEC, ZEC12_CONFIG_2, scale=SCALE,
                       sampling=SamplingPlan(), parallel=ParallelPlan(2),
                       backend="serial")
        shipped = pickle.loads(pickle.dumps(plan))
        assert shipped == plan
        assert shipped.fingerprint() == plan.fingerprint()


class TestRunResult:
    def test_fraction_lookup(self):
        run = RunResult(
            workload="w", config="c", cpi=1.0, instructions=10, branches=5,
            outcome_fractions={OutcomeKind.SURPRISE_CAPACITY.value: 0.25},
            preload_stats={},
        )
        assert run.fraction(OutcomeKind.SURPRISE_CAPACITY) == 0.25
        assert run.fraction(OutcomeKind.GOOD_DYNAMIC) == 0.0
        assert run.bad_fraction == 0.25


class TestAggregates:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == 2.0
        assert geometric_mean([]) == 0.0
        assert geometric_mean([1.0, 0.0]) == 0.0
