"""Predictor conformance battery: the contract every zoo member must meet.

A registry entry is only useful if the harness can trust it the way it
trusts the paper stack: deterministic replay, checkpointable state,
warm/detail parity, address-relabel invariance, and a clean self-audit.
This module states those obligations as executable checks — each one a
function returning a list of problem strings (empty = conforming) — and
:func:`conformance_problems` runs the whole battery for one registry name.

The battery is *behavioral*, driven purely through the public
:class:`~repro.engine.predictor.Predictor` interface, so it applies
unchanged to the paper stack and to any future registry entry.  It is
consumed twice: ``tests/predictors/test_conformance.py`` parametrizes it
over every registry entry, and ``repro verify --predictor`` runs it as
part of the zoo gate.

Checks (name -> meaning):

* ``determinism`` — two independent runs over the same trace end in the
  same state and counters, bit for bit.
* ``checkpoint`` — splitting a run at its midpoint through a JSON
  round-tripped ``state_dict()`` snapshot resumes to the exact end state
  of the unbroken run.
* ``warm-parity`` — ``warm_run`` is exactly a ``warm_step`` loop (no
  hidden batching effects in functional warming).
* ``relabel`` — shifting every address by a multiple of the fold-granule
  (:data:`repro.oracle.metamorphic.RELABEL_GRANULE`) leaves every counter
  unchanged: no predictor may key behavior on absolute addresses.
* ``audit-clean`` — a fully audited run of the conformance trace raises
  no invariant violation.
"""

from __future__ import annotations

import json
from typing import Callable, Sequence

from repro.core.config import ZEC12_CONFIG_2, PredictorConfig
from repro.engine.params import DEFAULT_TIMING, TimingParams
from repro.predictors.registry import create_predictor
from repro.trace.record import TraceRecord

#: Relabel shift used by the battery — 64 granules, comfortably past every
#: index/tag/fold bit any conforming predictor may consume.
RELABEL_SHIFTS = 64


def conformance_trace(seed: int = 2024, length: int = 600) -> list[TraceRecord]:
    """The battery's default workload: random walk + adversarial window.

    A seeded random program walk (branch-kind variety, context-switch
    splices) concatenated with an adversarial BTB-probe window (eviction
    and aliasing pressure); the junction itself reads as one more context
    switch.  Deterministic in ``seed``.
    """
    from repro.audit.fuzz import build_trace
    from repro.workloads.adversarial import corpus_trace

    return build_trace(seed, length) + corpus_trace(seed + 1, length // 2)


def _state(predictor) -> tuple[dict, dict]:
    """Comparable snapshot: full model state plus counters."""
    return predictor.state_dict(), predictor.counters.state_dict()


def check_determinism(
    name: str, trace: Sequence[TraceRecord],
    config: PredictorConfig, timing: TimingParams,
) -> list[str]:
    """Two independent runs must agree exactly (state and counters)."""
    first = create_predictor(name, config=config, timing=timing)
    second = create_predictor(name, config=config, timing=timing)
    first.run(list(trace))
    second.run(list(trace))
    problems = []
    if first.state_dict() != second.state_dict():
        problems.append("repeated runs ended in different model state")
    if first.counters.state_dict() != second.counters.state_dict():
        problems.append("repeated runs ended with different counters")
    return problems


def check_checkpoint(
    name: str, trace: Sequence[TraceRecord],
    config: PredictorConfig, timing: TimingParams,
) -> list[str]:
    """Split-at-midpoint resume through JSON must be bit-identical."""
    records = list(trace)
    half = len(records) // 2
    full = create_predictor(name, config=config, timing=timing)
    full.run(records)

    head = create_predictor(name, config=config, timing=timing)
    for record in records[:half]:
        head.step(record)
    # The JSON round trip is part of the contract: a snapshot that only
    # works in-process (live object references, non-serializable keys)
    # cannot back the checkpoint store.
    snapshot = json.loads(json.dumps(head.state_dict()))
    tail = create_predictor(name, config=config, timing=timing)
    tail.load_state_dict(snapshot)
    for record in records[half:]:
        tail.step(record)
    tail.finish()

    problems = []
    if tail.state_dict() != full.state_dict():
        problems.append(
            "resumed run ended in different model state than unbroken run")
    if tail.counters.state_dict() != full.counters.state_dict():
        problems.append(
            "resumed run ended with different counters than unbroken run")
    return problems


def check_warm_parity(
    name: str, trace: Sequence[TraceRecord],
    config: PredictorConfig, timing: TimingParams,
) -> list[str]:
    """``warm_run`` must equal a plain ``warm_step`` loop, state for state."""
    bulk = create_predictor(name, config=config, timing=timing)
    stepped = create_predictor(name, config=config, timing=timing)
    bulk.warm_run(list(trace))
    for record in trace:
        stepped.warm_step(record)
    if bulk.state_dict() != stepped.state_dict():
        return ["warm_run state differs from an equivalent warm_step loop"]
    return []


def check_relabel(
    name: str, trace: Sequence[TraceRecord],
    config: PredictorConfig, timing: TimingParams,
) -> list[str]:
    """Granule-aligned address relabeling must not move any counter."""
    from repro.oracle.metamorphic import RELABEL_GRANULE, relabel

    base = create_predictor(name, config=config, timing=timing)
    shifted = create_predictor(name, config=config, timing=timing)
    base.run(list(trace))
    shifted.run(relabel(list(trace), RELABEL_SHIFTS * RELABEL_GRANULE))
    if base.counters.state_dict() != shifted.counters.state_dict():
        return [
            f"counters changed under a {RELABEL_SHIFTS}-granule address "
            f"relabel — behavior depends on absolute addresses"
        ]
    return []


def check_audit_clean(
    name: str, trace: Sequence[TraceRecord],
    config: PredictorConfig, timing: TimingParams,
) -> list[str]:
    """A fully audited run must pass every internal invariant check."""
    audited = create_predictor(name, config=config, timing=timing, audit=True)
    return audited.verify_run(list(trace))


#: The battery, in report order.  Keys are the check names used in problem
#: prefixes, test ids, and the verify gate output.
CONFORMANCE_CHECKS: dict[str, Callable[..., list[str]]] = {
    "determinism": check_determinism,
    "checkpoint": check_checkpoint,
    "warm-parity": check_warm_parity,
    "relabel": check_relabel,
    "audit-clean": check_audit_clean,
}


def conformance_problems(
    name: str,
    trace: Sequence[TraceRecord] | None = None,
    config: PredictorConfig = ZEC12_CONFIG_2,
    timing: TimingParams = DEFAULT_TIMING,
) -> list[str]:
    """Run the full battery for one registry entry; return all problems.

    Every problem line is prefixed with its check name, so a gate failure
    reads ``checkpoint: resumed run ended in different model state ...``.
    """
    records = conformance_trace() if trace is None else list(trace)
    problems: list[str] = []
    for check_name, check in CONFORMANCE_CHECKS.items():
        problems.extend(
            f"{check_name}: {problem}"
            for problem in check(name, records, config, timing)
        )
    return problems
