"""The golden grid: the committed cells and the gate over them.

The committed ``tests/golden/predictors.json`` pins every registry entry,
the paper stack included, over one workload slate; the comparator must
accept a faithful re-measurement, reject a doctored cell, and flag a
registry entry that has no recorded block at all (new predictors must be
pinned).
"""

import json

import pytest

from repro.core.config import ZEC12_CONFIG_2
from repro.oracle import golden
from repro.oracle.golden import (
    GOLDEN_PATH,
    GOLDEN_SCALE,
    GOLDEN_SCHEMA,
    GOLDEN_WORKLOADS,
    build,
    compare,
    load_baseline,
    write_baseline,
)
from repro.predictors.registry import predictor_names
from repro.workloads.catalog import TABLE4_WORKLOADS

#: One cheap cell for the measured-gate tests: a single zoo predictor on
#: the shortest adversarial workload (floored at 4k records).
CELL_PREDICTORS = ("tage",)
CELL_WORKLOADS = ("adversarial/target-aliasing",)


@pytest.fixture(scope="module")
def baseline():
    return load_baseline(GOLDEN_PATH)


class TestCommittedBaseline:
    def test_document_shape(self, baseline):
        assert baseline["schema"] == GOLDEN_SCHEMA
        assert baseline["config"] == ZEC12_CONFIG_2.name
        assert baseline["scale"] == GOLDEN_SCALE
        assert baseline["tolerances"]["relative"] > 0

    def test_every_registry_entry_is_pinned(self, baseline):
        assert set(baseline["predictors"]) == set(predictor_names())

    def test_every_block_covers_the_golden_slate(self, baseline):
        assert len(GOLDEN_WORKLOADS) == 15
        for name, block in baseline["predictors"].items():
            assert set(block) == set(GOLDEN_WORKLOADS), name
            for workload, metrics in block.items():
                assert metrics["cpi"] > 0, (name, workload)
                assert metrics["instructions"] > 0, (name, workload)

    def test_slate_includes_adversarial_probes(self):
        adversarial = [workload for workload in GOLDEN_WORKLOADS
                       if workload.startswith("adversarial/")]
        assert len(adversarial) >= 2
        assert {spec.name for spec in TABLE4_WORKLOADS} <= set(
            GOLDEN_WORKLOADS)


class TestGate:
    def test_missing_predictor_block_is_a_problem(self, baseline):
        doctored = json.loads(json.dumps(baseline))
        del doctored["predictors"]["ldbp"]
        problems = compare(doctored, predictors=("ldbp",))
        assert len(problems) == 1
        assert "no golden baseline block" in problems[0]
        assert "ldbp" in problems[0]

    def test_accepts_faithful_and_rejects_doctored_cells(self, baseline):
        # Both comparisons measure the same single cell; the second is
        # served from the per-test result cache, so this costs one run.
        clean = compare(
            baseline, predictors=CELL_PREDICTORS, workloads=CELL_WORKLOADS)
        assert clean == []
        doctored = json.loads(json.dumps(baseline))
        doctored["predictors"]["tage"]["adversarial/target-aliasing"][
            "cpi"] *= 2
        problems = compare(
            doctored, predictors=CELL_PREDICTORS, workloads=CELL_WORKLOADS)
        assert any("tage/adversarial/target-aliasing" in problem
                   and "cpi" in problem for problem in problems)

    def test_round_trip_through_writer_and_loader(self, tmp_path, baseline):
        path = tmp_path / "predictors.json"
        write_baseline(path, baseline)
        assert load_baseline(path) == baseline


class TestBuilder:
    def test_builder_produces_a_complete_document(self, monkeypatch):
        # Stub the measurement: the builder's contract is document
        # assembly, not simulation (the committed file pins real numbers).
        monkeypatch.setattr(
            golden, "measure",
            lambda scale, config, jobs: {"paper": {"W": {"cpi": 1.0}}})
        document = build(scale=0.01)
        assert document["schema"] == GOLDEN_SCHEMA
        assert document["scale"] == 0.01
        assert document["predictors"] == {"paper": {"W": {"cpi": 1.0}}}
