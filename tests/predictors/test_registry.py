"""Registry, factory, fingerprint, and cache-key tests for the zoo.

Two load-bearing compatibility properties live here:

* ``predictor="paper"`` *is* the simulator, with its historical model
  fingerprint (so its results and checkpoints equal every historical
  one), and
* fingerprints are append-only — ``predictor="paper"`` produces the
  historical cache key, any other registry entry a distinct one.
"""

from dataclasses import replace

import pytest

from repro.audit.fuzz import build_trace
from repro.core.config import ZEC12_CONFIG_2
from repro.engine.params import DEFAULT_TIMING
from repro.engine.simulator import Simulator
from repro.experiments.pool import RunSpec
from repro.predictors.registry import (
    DEFAULT_PREDICTOR,
    create_predictor,
    predictor_info,
    predictor_names,
    register_predictor,
)
from repro.workloads.catalog import workload_by_name


class TestRegistry:
    def test_names_are_sorted_and_complete(self):
        assert predictor_names() == ("bullseye", "ldbp", "paper", "tage")
        assert DEFAULT_PREDICTOR == "paper"

    def test_info_resolves_every_name(self):
        for name in predictor_names():
            info = predictor_info(name)
            assert info.name == name
            assert info.summary

    def test_unknown_name_lists_the_registry(self):
        with pytest.raises(ValueError, match="bullseye, ldbp, paper, tage"):
            predictor_info("nope")

    def test_duplicate_registration_is_refused(self):
        with pytest.raises(ValueError, match="already registered"):
            register_predictor("paper", "imposter", lambda *a, **k: None)

    def test_create_returns_named_instances(self):
        for name in predictor_names():
            predictor = create_predictor(name)
            assert predictor.name == name
            assert predictor.config is ZEC12_CONFIG_2


class TestModelFingerprints:
    def test_every_entry_has_a_distinct_fingerprint(self):
        prints = {create_predictor(name).model_fingerprint()
                  for name in predictor_names()}
        assert len(prints) == len(predictor_names())

    def test_fingerprint_is_stable_across_instances(self):
        for name in predictor_names():
            assert (create_predictor(name).model_fingerprint()
                    == create_predictor(name).model_fingerprint())

    def test_fingerprint_tracks_the_configuration(self):
        small = replace(ZEC12_CONFIG_2, btb1_rows=512, name="small")
        assert (create_predictor("tage").model_fingerprint()
                != create_predictor("tage",
                                    config=small).model_fingerprint())

    def test_paper_keeps_the_historical_fingerprint(self):
        # Cache and checkpoint compatibility: predictor="paper" must hit
        # the same result slots and load the same snapshots every pre-zoo
        # run ever wrote, so the digest is pinned, not recomputed.
        paper = create_predictor("paper")
        assert paper.model_fingerprint() == "dbe5707c96d4534e"
        assert (Simulator(ZEC12_CONFIG_2, DEFAULT_TIMING).model_fingerprint()
                == "dbe5707c96d4534e")


class TestPaperStack:
    def test_create_predictor_returns_the_simulator(self):
        # No adapter: the factory only translates its flags, and a run
        # through it is bit-identical to a directly built simulator.
        paper = create_predictor("paper")
        assert type(paper) is Simulator
        assert paper.audit is None
        assert create_predictor("paper", audit=True).audit is not None
        trace = build_trace(9, 400)
        simulator = Simulator(ZEC12_CONFIG_2, DEFAULT_TIMING)
        created = paper.run(list(trace))
        direct = simulator.run(list(trace))
        assert created.counters.state_dict() == direct.counters.state_dict()
        assert paper.state_dict() == simulator.state_dict()
        assert created.cpi == direct.cpi


class TestRunFingerprints:
    def test_paper_keeps_the_historical_cache_key(self):
        spec = workload_by_name("TPF")
        base = RunSpec(spec, ZEC12_CONFIG_2, DEFAULT_TIMING,
                       0.02).fingerprint()
        explicit = RunSpec(spec, ZEC12_CONFIG_2, DEFAULT_TIMING, 0.02,
                           predictor="paper").fingerprint()
        assert base == explicit

    def test_zoo_predictors_get_their_own_cache_slots(self):
        spec = workload_by_name("TPF")
        prints = {
            RunSpec(spec, ZEC12_CONFIG_2, DEFAULT_TIMING, 0.02,
                    predictor=name).fingerprint()
            for name in predictor_names()
        }
        assert len(prints) == len(predictor_names())

    def test_runspec_defaults_to_the_paper_stack(self):
        spec = RunSpec(workload=workload_by_name("TPF"),
                       config=ZEC12_CONFIG_2, scale=0.02)
        assert spec.predictor == "paper"
        assert spec.fingerprint() == replace(
            spec, predictor="paper").fingerprint()
        assert spec.fingerprint() != replace(
            spec, predictor="ldbp").fingerprint()
