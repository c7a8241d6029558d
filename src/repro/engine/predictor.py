"""The formal contract every branch predictor implements.

:class:`Predictor` lives in the engine package because the paper's own
two-level bulk-preload stack, :class:`repro.engine.simulator.Simulator`,
implements it directly; the zoo members (``repro.predictors``) implement
it through their shared sequence engine.  ``repro.predictors`` re-exports
the class, so ``repro.predictors.Predictor`` is the usual import.
"""

from __future__ import annotations

import abc
import hashlib
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.config import PredictorConfig
from repro.engine.params import TimingParams
from repro.trace.record import TraceRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (simulator -> here)
    from repro.engine.simulator import SimulationResult


class Predictor(abc.ABC):
    """Formal interface every registered branch predictor implements.

    The contract mirrors the surface ``repro.experiments`` and the CLI
    drive on the paper engine:

    * ``step(record)`` consumes one trace record in detailed mode;
      ``run(records)`` is the convenience loop ending in ``finish()``.
    * ``warm_step(record)`` / ``warm_run(records)`` perform functional
      warming: structures learn, nothing is accounted.
    * ``finish()`` seals the run and returns a
      :class:`~repro.engine.simulator.SimulationResult`.
    * ``state_dict()`` / ``load_state_dict()`` are versioned, JSON-safe
      checkpoints with exact save→load→resume reproduction (the
      conformance battery asserts bit-identity).
    * ``model_fingerprint()`` identifies the architecture+configuration for
      the result cache; two predictors that could ever diverge must never
      share a fingerprint.
    * ``verify_run(records)`` runs audited and returns a list of problem
      strings — the audit-clean leg of the conformance battery.
    * ``probe`` (attribute, default ``None``) is the lockstep observer the
      differential oracles and telemetry consumers install.
    """

    #: Registry name of the implementation (set by subclasses).
    name: str = ""

    #: Version of the ``state_dict`` schema; ``load_state_dict`` refuses
    #: snapshots written by another version.
    STATE_VERSION = 1

    config: PredictorConfig
    timing: TimingParams

    @abc.abstractmethod
    def step(self, record: TraceRecord) -> None:
        """Consume one trace record in detailed (accounted) mode."""

    @abc.abstractmethod
    def warm_step(self, record: TraceRecord) -> None:
        """Consume one record functionally: train structures, account nothing."""

    @abc.abstractmethod
    def finish(self) -> "SimulationResult":
        """Seal the run and return its result."""

    @abc.abstractmethod
    def state_dict(self) -> dict:
        """Versioned, JSON-serializable snapshot of all mutable state."""

    @abc.abstractmethod
    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""

    def begin_interval(self, address: int) -> None:
        """Hook called at sampled-interval boundaries (default no-op)."""

    def run(self, records: Iterable[TraceRecord]) -> "SimulationResult":
        """Drive a full detailed run over ``records`` and finish."""
        for record in records:
            self.step(record)
        return self.finish()

    def warm_run(self, records: Iterable[TraceRecord]) -> None:
        """Functionally warm over ``records`` (loop over :meth:`warm_step`)."""
        for record in records:
            self.warm_step(record)

    def model_fingerprint(self) -> str:
        """Stable identity of this architecture + configuration.

        Folds the implementation name and state-schema version in with the
        configuration and timing so no two registry entries — and no two
        schema generations of the same entry — can collide in the result
        cache or accept each other's checkpoints.
        """
        payload = repr((type(self).__name__, self.name, self.STATE_VERSION,
                        self.config, self.timing))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def audit_problems(self) -> list[str]:
        """Invariant violations observable in the current state (default none)."""
        return []

    def verify_run(self, records: Sequence[TraceRecord]) -> list[str]:
        """Run ``records`` audited; return problem strings instead of raising."""
        from repro.audit.auditor import AuditViolation

        try:
            self.run(records)
        except AuditViolation as violation:
            return [f"{violation.check}: {problem}"
                    for problem in violation.problems]
        return self.audit_problems()
