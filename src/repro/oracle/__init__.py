"""Independent verification of every registered predictor (the oracle layer).

One toolkit, keyed by predictor registry name, the paper stack included:

* :mod:`repro.oracle.reference` / :mod:`repro.oracle.zoo_reference` — the
  independent reference models: :class:`ReferencePredictor`, a
  deliberately slow, obviously-correct reimplementation of the paper's
  BTB1/BTBP/PHT/CTB/FIT content semantics and bulk-preload transfer
  rules, and one reference per zoo member, each sharing nothing but the
  configuration and the trace vocabulary with production;
* :mod:`repro.oracle.differential` — :func:`lockstep`, stepping the
  production model of any registry name beside its reference and
  reporting the first :class:`Divergence` (record, branch address,
  structure, and the search cycle where there is one), plus the ddmin
  shrinker (:func:`shrink_divergence`), the mutation drill
  (:func:`mutation_drill`) and the lockstep slate (:func:`run_campaign`);
* :mod:`repro.oracle.golden` / :mod:`repro.oracle.metamorphic` — the
  golden grid under ``tests/golden/predictors.json`` and the
  model-invariance transforms (address relabeling, region permutation),
  both enforced by ``repro verify``.
"""

from repro.oracle.differential import (
    ORACLES,
    Divergence,
    DivergenceError,
    LockstepResult,
    drill,
    lockstep,
    mutation_drill,
    run_campaign,
    shrink_divergence,
)
from repro.oracle.reference import ReferencePredictor

__all__ = [
    "ORACLES",
    "Divergence",
    "DivergenceError",
    "LockstepResult",
    "ReferencePredictor",
    "drill",
    "lockstep",
    "mutation_drill",
    "run_campaign",
    "shrink_divergence",
]
