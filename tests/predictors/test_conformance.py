"""Conformance battery, parametrized over every registry entry.

This is the enforcement point of the predictor contract: the battery in
``repro.predictors.conformance`` runs against *every* name the registry
exposes, so registering a new predictor without passing determinism,
checkpoint bit-identity, warm/detail parity, relabel invariance, and an
audit-clean run is impossible — the parametrization picks it up
automatically.
"""

import itertools

import pytest

from repro.core.config import ZEC12_CONFIG_2
from repro.engine.params import DEFAULT_TIMING
from repro.predictors import conformance, registry
from repro.predictors.conformance import (
    CONFORMANCE_CHECKS,
    check_checkpoint,
    check_determinism,
    conformance_problems,
    conformance_trace,
)
from repro.predictors.registry import PredictorInfo, predictor_names
from repro.predictors.tage import TagePredictor
from repro.sampling.checkpoint import decode_state, encode_state
from repro.workloads.catalog import workload_by_name


@pytest.fixture(scope="module")
def trace():
    """One shared battery trace (pure generation, no cache access)."""
    return conformance_trace()


class TestBattery:
    @pytest.mark.parametrize("check", list(CONFORMANCE_CHECKS))
    @pytest.mark.parametrize("name", predictor_names())
    def test_every_registry_entry_conforms(self, name, check, trace):
        problems = CONFORMANCE_CHECKS[check](
            name, trace, ZEC12_CONFIG_2, DEFAULT_TIMING)
        assert problems == []

    def test_trace_is_deterministic(self):
        assert conformance_trace(seed=3) == conformance_trace(seed=3)
        assert conformance_trace(seed=3) != conformance_trace(seed=4)

    def test_battery_covers_the_contract(self):
        assert list(CONFORMANCE_CHECKS) == [
            "determinism", "checkpoint", "warm-parity", "relabel",
            "audit-clean",
        ]


class _Flaky(TagePredictor):
    """Deliberately broken: every snapshot carries a fresh nonce."""

    _nonce = itertools.count()

    def state_dict(self):
        state = super().state_dict()
        state["nonce"] = next(self._nonce)
        return state


class TestBatteryTeeth:
    def test_problems_are_prefixed_with_the_check_name(
        self, monkeypatch, trace
    ):
        monkeypatch.setitem(
            CONFORMANCE_CHECKS, "determinism",
            lambda name, records, config, timing: ["boom"])
        problems = conformance_problems("tage", trace=list(trace)[:40])
        assert "determinism: boom" in problems


@pytest.fixture
def flaky_registered(monkeypatch):
    def factory(config, timing, *, audit=False, telemetry=None):
        return _Flaky(config, timing, audit=audit, telemetry=telemetry)

    monkeypatch.setitem(
        registry._REGISTRY, "flaky",
        PredictorInfo("flaky", "broken on purpose (test double)", factory))


class TestBatteryTeethRegistered:
    def test_flaky_predictor_fails_determinism(self, flaky_registered):
        trace = conformance_trace(seed=5, length=60)
        problems = check_determinism(
            "flaky", trace, ZEC12_CONFIG_2, DEFAULT_TIMING)
        assert any("different model state" in problem
                   for problem in problems)

    def test_healthy_predictor_passes_the_same_check(self):
        trace = conformance_trace(seed=5, length=60)
        assert check_determinism(
            "tage", trace, ZEC12_CONFIG_2, DEFAULT_TIMING) == []


@pytest.fixture(scope="module")
def commercial_slice():
    """3,000 TPF records: 82 distinct branches by the midpoint, enough for
    every predictor's state to hold an int list of section length (the
    battery trace reaches only 18 there)."""
    return workload_by_name("TPF").generate(0.02)[:3000]


class TestCheckpointCodecLeg:
    @pytest.mark.parametrize("name", predictor_names())
    def test_the_leg_resumes_from_raw_sections(self, name,
                                               commercial_slice):
        records = list(commercial_slice)
        head = registry.create_predictor(name, config=ZEC12_CONFIG_2)
        for record in records[:len(records) // 2]:
            head.step(record)
        assert b"\n" in encode_state(head.state_dict())
        assert check_checkpoint(name, records, ZEC12_CONFIG_2,
                                DEFAULT_TIMING) == []

    def test_a_codec_that_loses_a_value_fails_the_leg(self, monkeypatch,
                                                      trace):
        def lossy(payload):
            state = decode_state(payload)
            state["counters"]["branches"] -= 1
            return state

        monkeypatch.setattr(conformance, "decode_state", lossy)
        problems = check_checkpoint("paper", list(trace), ZEC12_CONFIG_2,
                                    DEFAULT_TIMING)
        assert problems == [
            "run resumed through checkpoint codec ended in different model "
            "state than unbroken run",
            "run resumed through checkpoint codec ended with different "
            "counters than unbroken run"]
