"""Golden-grid gate logic, exercised without real measurements.

``compare`` re-measures through the (expensive) experiment pool; these
tests monkeypatch the measurement step so the comparison semantics —
tolerances, drift detection, schema checks, cell selection — are pinned
cheaply.  The real end-to-end gate runs under ``repro verify`` (full CI
tier, ``tests/test_cli.py``).
"""

import pytest

from repro.oracle import golden


def metrics(cpi: float = 1.5, branches: int = 1000) -> dict:
    return {
        "cpi": cpi,
        "accuracy": 0.95,
        "bad_outcome_fraction": 0.05,
        "instructions": 50_000,
        "branches": branches,
        "preload": {"rows_read": 120, "entries_transferred": 300},
    }


def baseline(cells: dict, name: str = "paper") -> dict:
    return {
        "schema": golden.GOLDEN_SCHEMA,
        "config": "zEC12 config 2",
        "scale": 0.02,
        "tolerances": dict(golden.DEFAULT_TOLERANCES),
        "predictors": {name: cells},
    }


@pytest.fixture
def measured(monkeypatch):
    """Patch re-measurement to return a controllable paper block."""
    store = {}

    def fake_measure(scale, config=None, jobs=None, predictors=None,
                     workloads=None):
        return {"paper": {
            name: block for name, block in store.items()
            if workloads is None or name in workloads
        }}

    monkeypatch.setattr(golden, "measure", fake_measure)
    return store


def check(document: dict, **selection) -> list[str]:
    return golden.compare(document, predictors=("paper",), **selection)


class TestCompareBaseline:
    def test_identical_measurement_passes(self, measured):
        measured["TPF"] = metrics()
        assert check(baseline({"TPF": metrics()})) == []

    def test_float_drift_is_caught_and_named(self, measured):
        measured["TPF"] = metrics(cpi=1.5001)
        problems = check(baseline({"TPF": metrics()}))
        assert len(problems) == 1
        assert "paper/TPF" in problems[0] and "cpi" in problems[0]

    def test_tiny_float_noise_within_tolerance(self, measured):
        measured["TPF"] = metrics(cpi=1.5 * (1 + 1e-12))
        assert check(baseline({"TPF": metrics()})) == []

    def test_integer_drift_is_exact(self, measured):
        measured["TPF"] = metrics(branches=1001)
        problems = check(baseline({"TPF": metrics()}))
        assert any("branches" in p for p in problems)

    def test_nested_preload_drift_is_caught(self, measured):
        block = metrics()
        block["preload"]["rows_read"] = 121
        measured["TPF"] = block
        problems = check(baseline({"TPF": metrics()}))
        assert any("preload" in p and "rows_read" in p for p in problems)

    def test_missing_workload_reported(self, measured):
        problems = check(baseline({"TPF": metrics()}))
        assert problems == ["paper/TPF: workload missing from the catalog"]

    def test_new_metric_not_in_baseline_reported(self, measured):
        block = metrics()
        block["novel"] = 3
        measured["TPF"] = block
        problems = check(baseline({"TPF": metrics()}))
        assert any("novel" in p and "not in baseline" in p for p in problems)

    def test_workload_selection_restricts_the_gate(self, measured):
        measured["TPF"] = metrics()
        measured["Other"] = metrics(cpi=9.9)  # would fail if selected
        gold = baseline({"TPF": metrics(), "Other": metrics()})
        assert check(gold, workloads=("TPF",)) == []

    def test_empty_selection_is_an_error(self, measured):
        gold = baseline({"TPF": metrics()})
        problems = check(gold, workloads=("nonesuch",))
        assert problems == ["no cells selected from the golden baseline"]

    def test_cell_one_predictor_lacks_is_reported(self, measured):
        measured["TPF"] = metrics()
        gold = baseline({"TPF": metrics()})
        gold["predictors"]["tage"] = {"Other": metrics()}
        problems = golden.compare(gold, predictors=("paper", "tage"),
                                  workloads=("TPF",))
        assert problems == ["tage/TPF: cell missing from the baseline"]


class TestBaselineFile:
    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "gold.json"
        document = baseline({"TPF": metrics()})
        golden.write_baseline(path, document)
        assert golden.load_baseline(path) == document

    def test_write_is_deterministic(self, tmp_path):
        document = baseline({"B": metrics(), "A": metrics()})
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        golden.write_baseline(first, document)
        golden.write_baseline(second, document)
        assert first.read_text() == second.read_text()

    def test_unknown_schema_is_rejected_with_hint(self, tmp_path):
        path = tmp_path / "gold.json"
        golden.write_baseline(path, {"schema": 999})
        with pytest.raises(ValueError, match="--update-golden"):
            golden.load_baseline(path)

    def test_repo_baseline_is_loadable_and_complete(self):
        from repro.workloads.catalog import TABLE4_WORKLOADS

        document = golden.load_baseline(golden.GOLDEN_PATH)
        assert set(document["predictors"]["paper"]) == set(
            golden.GOLDEN_WORKLOADS)
        assert {spec.name for spec in TABLE4_WORKLOADS} <= set(
            document["predictors"]["paper"])
        assert document["scale"] == golden.GOLDEN_SCALE
