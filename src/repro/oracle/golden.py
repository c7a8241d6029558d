"""Golden-baseline regression gate over the workload catalog.

A golden baseline is a JSON snapshot of per-workload end-to-end metrics
(CPI, prediction accuracy, preload traffic) for the full BTB2 configuration
at a pinned scale.  ``repro verify`` re-measures every workload and fails
on any drift outside the recorded tolerances; ``repro verify
--update-golden`` regenerates the file after an *intended* behavior change.

The simulator is deterministic, so the default tolerances are essentially
exact (a relative epsilon absorbs only float-serialization round-trips).
Intentional looseness can be recorded in the file itself — the tolerances
travel with the baseline, not with the checking code.

Measurement goes through :func:`repro.experiments.pool.run_many`, so a
verify pass reuses the shared on-disk result cache and parallelizes across
workloads.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.config import ZEC12_CONFIG_2, PredictorConfig
from repro.experiments.common import RunResult
from repro.workloads.catalog import TABLE4_WORKLOADS

#: Schema version of the baseline file.
GOLDEN_SCHEMA = 1
#: Scale the baseline is recorded at: floors every catalog workload to its
#: 50k-record minimum, keeping a full verify pass in seconds.
GOLDEN_SCALE = 0.02
#: Default on-repo location of the baseline.
GOLDEN_PATH = Path("tests") / "golden" / "workloads.json"
#: Default tolerances: relative slack on floats (serialization round-trip
#: headroom only — the simulator is deterministic), exact integers.
DEFAULT_TOLERANCES = {"relative": 1e-9}

#: Integer preload counters pinned per workload.
_PRELOAD_KEYS = ("rows_read", "entries_transferred")


def workload_metrics(run: RunResult) -> dict:
    """The per-workload metric block stored in (and checked against) gold."""
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


def measure_workloads(
    scale: float = GOLDEN_SCALE,
    config: PredictorConfig = ZEC12_CONFIG_2,
    jobs: int | None = None,
    workloads: tuple[str, ...] | None = None,
    engine_mode: str = "object",
) -> dict[str, dict]:
    """Measure every catalog workload (cached, parallel); name -> metrics.

    ``engine_mode`` selects the simulation engine; the golden gate run
    under ``auto`` doubles as the engine-equivalence check, since the
    baseline file is recorded by the object engine.
    """
    from repro.experiments.pool import RunSpec, run_many

    specs = [
        RunSpec(workload=spec, config=config, scale=scale,
                engine_mode=engine_mode)
        for spec in TABLE4_WORKLOADS
        if workloads is None or spec.name in workloads
    ]
    runs = run_many(specs, jobs=jobs)
    return {run.workload: workload_metrics(run) for run in runs}


def build_baseline(
    scale: float = GOLDEN_SCALE,
    config: PredictorConfig = ZEC12_CONFIG_2,
    jobs: int | None = None,
) -> dict:
    """Measure all workloads and assemble a complete baseline document."""
    return {
        "schema": GOLDEN_SCHEMA,
        "config": config.name,
        "scale": scale,
        "tolerances": dict(DEFAULT_TOLERANCES),
        "workloads": measure_workloads(scale=scale, config=config, jobs=jobs),
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
    workload: str, measured: dict, golden: dict, relative: float
) -> list[str]:
    problems = []
    for key in sorted(set(measured) | set(golden)):
        if key not in golden:
            problems.append(f"{workload}: metric '{key}' not in baseline")
            continue
        if key not in measured:
            problems.append(f"{workload}: metric '{key}' not measured")
            continue
        if isinstance(golden[key], dict):
            problems.extend(
                _compare_block(
                    f"{workload}.{key}", measured[key], golden[key], relative
                )
            )
        elif not _within(measured[key], golden[key], relative):
            problems.append(
                f"{workload}: {key} measured {measured[key]!r} != "
                f"golden {golden[key]!r} (relative tolerance {relative})"
            )
    return problems


def compare_baseline(
    baseline: dict,
    jobs: int | None = None,
    workloads: tuple[str, ...] | None = None,
    config: PredictorConfig = ZEC12_CONFIG_2,
    engine_mode: str = "object",
) -> list[str]:
    """Re-measure and diff against ``baseline``; return all problems.

    Re-measurement happens at the baseline's own recorded scale, so the
    file is self-describing.  ``workloads`` restricts the check (smoke
    runs); a full gate checks every workload recorded in the file.
    ``engine_mode="auto"`` re-measures with the batched engine, making
    the gate a bit-identity check of the engines against each other.
    """
    relative = float(baseline.get("tolerances", {}).get("relative", 0.0))
    golden_workloads = baseline.get("workloads", {})
    selected = {
        name: golden
        for name, golden in golden_workloads.items()
        if workloads is None or name in workloads
    }
    if not selected:
        return ["no workloads selected from the golden baseline"]
    measured = measure_workloads(
        scale=float(baseline["scale"]), config=config, jobs=jobs,
        workloads=tuple(selected), engine_mode=engine_mode,
    )
    problems = []
    for name in sorted(selected):
        if name not in measured:
            problems.append(f"{name}: workload missing from the catalog")
            continue
        problems.extend(
            _compare_block(name, measured[name], selected[name], relative)
        )
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

    Runs every selected catalog workload twice — serially and cut into
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

    selected = [
        spec for spec in TABLE4_WORKLOADS
        if workloads is None or spec.name in workloads
    ]
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
        info = parallel.parallel or {}
        if not info.get("exact", False):
            problems.append(
                f"{spec.name}: parallel run degraded to functional warming "
                f"({info.get('warm_fallbacks', '?')} fallback slice(s)) — "
                f"not exact, cannot gate on bit-identity"
            )
        if serial != parallel:
            problems.append(
                f"{spec.name}: parallel({intervals}) result differs from "
                f"serial (cpi {parallel.cpi!r} vs {serial.cpi!r}, "
                f"instructions {parallel.instructions} vs "
                f"{serial.instructions})"
            )
    return problems
