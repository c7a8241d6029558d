"""The golden grid: pinned end-to-end metrics for every registered predictor.

One JSON document under ``tests/golden/predictors.json`` pins, for each
(predictor, workload) cell, the CPI, prediction accuracy, counts and
preload traffic of a full-detail run on the full BTB2 configuration at a
pinned scale.  The cells live under ``predictors.<name>.<workload>``;
every registry entry is pinned over the same slate
(:data:`GOLDEN_WORKLOADS`: the 13 Table 4 workloads and two adversarial
BTB probes).  ``repro verify`` re-measures the selected cells and fails
on any drift outside the recorded tolerances; ``repro verify
--update-golden`` regenerates the whole grid after an *intended*
behavior change.

The simulator is deterministic, so the default tolerances are essentially
exact (a relative epsilon absorbs only float-serialization round-trips).
Intentional looseness can be recorded in the file itself — the tolerances
travel with the baseline, not with the checking code.

Measurement goes through :func:`repro.experiments.pool.run_many`, so a
verify pass reuses the shared on-disk result cache and parallelizes across
cells.  :func:`compare_parallel`, the serial-vs-checkpoint-parallel
bit-identity gate, also lives here; it covers the paper stack only,
because zoo members run serial full detail.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from repro.core.config import ZEC12_CONFIG_2, PredictorConfig
from repro.experiments.common import RunResult
from repro.workloads.catalog import TABLE4_WORKLOADS, WorkloadSpec

#: Schema version of the baseline file.
GOLDEN_SCHEMA = 1
#: Scale the baseline is recorded at: floors every catalog workload to its
#: 50k-record minimum, keeping a full verify pass in seconds.
GOLDEN_SCALE = 0.02
#: Default on-repo location of the baseline.
GOLDEN_PATH = Path("tests") / "golden" / "predictors.json"
#: Default tolerances: relative slack on floats (serialization round-trip
#: headroom only — the simulator is deterministic), exact integers.
DEFAULT_TOLERANCES = {"relative": 1e-9}
#: The workload slate every predictor is pinned on: the Table 4 catalog
#: plus a capacity and an aliasing BTB probe, so a regression in either
#: the direction machinery or the target store moves at least one cell.
GOLDEN_WORKLOADS: tuple[str, ...] = (
    *(spec.name for spec in TABLE4_WORKLOADS),
    "adversarial/btb-capacity",
    "adversarial/target-aliasing",
)

#: Integer preload counters pinned per cell.
_PRELOAD_KEYS = ("rows_read", "entries_transferred")


def workload_metrics(run: RunResult) -> dict:
    """The per-cell metric block stored in (and checked against) gold."""
    return {
        "cpi": run.cpi,
        "accuracy": 1.0 - run.bad_fraction,
        "bad_outcome_fraction": run.bad_fraction,
        "instructions": run.instructions,
        "branches": run.branches,
        "preload": {
            key: run.preload_stats.get(key, 0) for key in _PRELOAD_KEYS
        },
    }


def golden_specs(
    workloads: Sequence[str] | None = None,
) -> list[WorkloadSpec]:
    """Catalog specs of ``workloads`` (exact names), in the given order.

    ``workloads`` defaults to :data:`GOLDEN_WORKLOADS`; a name the catalog
    does not know is left out.  The golden grid and the parallel gate both
    draw their workloads here.
    """
    from repro.workloads.adversarial import ADVERSARIAL_WORKLOADS

    catalog = {spec.name: spec
               for spec in (*TABLE4_WORKLOADS, *ADVERSARIAL_WORKLOADS)}
    return [catalog[name]
            for name in (GOLDEN_WORKLOADS if workloads is None else workloads)
            if name in catalog]


def measure(
    scale: float = GOLDEN_SCALE,
    config: PredictorConfig = ZEC12_CONFIG_2,
    jobs: int | None = None,
    predictors: Sequence[str] | None = None,
    workloads: Sequence[str] | None = None,
) -> dict[str, dict[str, dict]]:
    """Measure the (predictor, workload) grid; name -> workload -> metrics.

    ``predictors`` defaults to the whole registry and ``workloads`` (exact
    names) to :data:`GOLDEN_WORKLOADS`; a name the catalog does not know is
    left out of the result.
    """
    from repro.experiments.pool import RunSpec, run_many
    from repro.predictors.registry import predictor_names

    selected = golden_specs(workloads)
    specs = [
        RunSpec(workload=workload, config=config, scale=scale,
                predictor=name)
        for name in (predictor_names() if predictors is None else predictors)
        for workload in selected
    ]
    grid: dict[str, dict[str, dict]] = {}
    for spec, run in zip(specs, run_many(specs, jobs=jobs)):
        grid.setdefault(spec.predictor, {})[run.workload] = (
            workload_metrics(run))
    return grid


def build(
    scale: float = GOLDEN_SCALE,
    config: PredictorConfig = ZEC12_CONFIG_2,
    jobs: int | None = None,
) -> dict:
    """Measure the whole grid and assemble a complete baseline document."""
    return {
        "schema": GOLDEN_SCHEMA,
        "config": config.name,
        "scale": scale,
        "tolerances": dict(DEFAULT_TOLERANCES),
        "predictors": measure(scale=scale, config=config, jobs=jobs),
    }


def write_baseline(path: Path, baseline: dict) -> None:
    """Serialize deterministically (sorted keys, stable layout)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")


def load_baseline(path: Path) -> dict:
    """Load and schema-check a baseline file."""
    baseline = json.loads(path.read_text())
    schema = baseline.get("schema")
    if schema != GOLDEN_SCHEMA:
        raise ValueError(
            f"golden baseline schema {schema!r} != supported {GOLDEN_SCHEMA} "
            f"({path}); regenerate with 'repro verify --update-golden'"
        )
    return baseline


def _within(measured, golden, relative: float) -> bool:
    if isinstance(golden, float) or isinstance(measured, float):
        scale = max(abs(measured), abs(golden), 1.0)
        return abs(measured - golden) <= relative * scale
    return measured == golden


def _compare_block(
    cell: str, measured: dict, golden: dict, relative: float
) -> list[str]:
    problems = []
    for key in sorted(set(measured) | set(golden)):
        if key not in golden:
            problems.append(f"{cell}: metric '{key}' not in baseline")
            continue
        if key not in measured:
            problems.append(f"{cell}: metric '{key}' not measured")
            continue
        if isinstance(golden[key], dict):
            problems.extend(
                _compare_block(
                    f"{cell}.{key}", measured[key], golden[key], relative
                )
            )
        elif not _within(measured[key], golden[key], relative):
            problems.append(
                f"{cell}: {key} measured {measured[key]!r} != "
                f"golden {golden[key]!r} (relative tolerance {relative})"
            )
    return problems


def compare(
    baseline: dict,
    jobs: int | None = None,
    predictors: Sequence[str] | None = None,
    workloads: Sequence[str] | None = None,
    config: PredictorConfig = ZEC12_CONFIG_2,
) -> list[str]:
    """Re-measure the selected cells and diff them against ``baseline``.

    Re-measurement happens at the baseline's own recorded scale, so the
    file is self-describing.  ``predictors`` (default: the whole registry)
    and ``workloads`` (exact names; default: every recorded one) select
    the cells.  A selected registry entry with no recorded block, and a
    cell that one predictor lacks while another has it, are problems:
    every predictor is pinned over the same slate.  Problems read
    ``<predictor>/<workload>: ...``.
    """
    from repro.predictors.registry import predictor_names

    relative = float(baseline.get("tolerances", {}).get("relative", 0.0))
    golden = baseline.get("predictors", {})
    selected = predictor_names() if predictors is None else tuple(predictors)
    problems = [
        f"{name}: predictor has no golden baseline block — regenerate "
        f"with 'repro verify --update-golden'"
        for name in selected if name not in golden
    ]
    present = [name for name in selected if name in golden]
    cells = sorted({
        workload
        for name in present
        for workload in golden[name]
        if workloads is None or workload in workloads
    })
    if not cells:
        return problems or ["no cells selected from the golden baseline"]
    measured = measure(
        scale=float(baseline["scale"]), config=config, jobs=jobs,
        predictors=present, workloads=cells,
    )
    for name in present:
        for workload in cells:
            cell = f"{name}/{workload}"
            if workload not in golden[name]:
                problems.append(f"{cell}: cell missing from the baseline")
            elif workload not in measured.get(name, {}):
                problems.append(f"{cell}: workload missing from the catalog")
            else:
                problems.extend(_compare_block(
                    cell, measured[name][workload], golden[name][workload],
                    relative))
    return problems


def compare_parallel(
    scale: float = GOLDEN_SCALE,
    config: PredictorConfig = ZEC12_CONFIG_2,
    jobs: int | None = None,
    workloads: tuple[str, ...] | None = None,
    intervals: int = 4,
    backend: str | None = None,
) -> list[str]:
    """Prove exact-mode checkpoint-parallel runs equal their serial twins.

    Runs every selected workload (:func:`golden_specs`: the golden slate
    by default, exact names otherwise) twice — serially and cut into
    ``intervals`` checkpoint-parallel slices over ``backend`` — and
    demands the :class:`RunResult` pairs compare **equal**: same counters,
    same CPI, same outcome fractions, bit for bit.  Exact-mode parallelism
    is a pure execution-strategy change; any drift here is a stitching or
    checkpoint-lineage bug, so there is no tolerance to configure.

    Returns a list of problems (empty = every workload is bit-identical).
    The two run families live in distinct result-cache slots, so a cached
    serial result can never satisfy (or poison) the parallel side of the
    comparison.
    """
    from repro.experiments.pool import RunSpec, run_many
    from repro.sampling import ParallelPlan

    selected = golden_specs(workloads)
    if not selected:
        return ["no workloads selected for the parallel gate"]
    plan = ParallelPlan(intervals=intervals)
    serial_specs = [
        RunSpec(workload=spec, config=config, scale=scale, audit=False)
        for spec in selected
    ]
    parallel_specs = [
        RunSpec(workload=spec, config=config, scale=scale, audit=False,
                parallel=plan, backend=backend)
        for spec in selected
    ]
    runs = run_many(serial_specs + parallel_specs, jobs=jobs)
    problems = []
    for spec, serial, parallel in zip(
        selected, runs[:len(selected)], runs[len(selected):]
    ):
        if serial != parallel:
            problems.append(
                f"{spec.name}: parallel({intervals}) result differs from "
                f"serial (cpi {parallel.cpi!r} vs {serial.cpi!r}, "
                f"instructions {parallel.instructions} vs "
                f"{serial.instructions})"
            )
    return problems
