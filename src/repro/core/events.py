"""Event records exchanged between the predictor pipeline and the core model.

These small values are the vocabulary of the simulator: predictions
produced by the lookahead search, miss reports feeding the BTB2 trackers,
and resolved-branch outcomes flowing back for training.

``Prediction`` and ``MissReport`` are plain slotted dataclasses, not
frozen ones: one is built per dynamic branch or perceived miss, and a
frozen ``__init__`` pays one ``object.__setattr__`` per field.  Nothing
mutates a value once built, and nothing hashes one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.btb.entry import BTBEntry


class PredictionLevel(enum.Enum):
    """Which first-level structure supplied a prediction."""

    BTB1 = "btb1"
    BTBP = "btbp"


@dataclass(slots=True)
class Prediction:
    """A dynamic prediction emitted by the lookahead search pipeline.

    ``ready_cycle`` is the cycle at which the prediction has been broadcast
    to instruction fetch/decode (the end of the pipeline of Table 1); a
    branch reaching decode before then cannot use it.
    """

    branch_address: int
    taken: bool
    target: int | None
    level: PredictionLevel
    ready_cycle: int
    entry: BTBEntry
    from_mru: bool = False
    used_pht: bool = False
    used_ctb: bool = False


@dataclass(slots=True)
class MissReport:
    """A perceived first-level miss (3.4), reported to the BTB2 logic.

    ``search_address`` is the starting search address of the first empty
    search — the address the miss "is reported at" in Table 2.
    """

    search_address: int
    cycle: int


class OutcomeKind(enum.Enum):
    """Taxonomy of dynamic branch outcomes (Figure 4)."""

    #: Members hash by identity, in C.  ``Enum.__hash__`` is Python code
    #: hashing the member name, and every dynamic branch counts its outcome
    #: in a dict keyed by kind (``SimCounters.record_outcome``).  Members
    #: are singletons that compare by identity, so every dict and set of
    #: them holds, orders and finds the same items as before.
    __hash__ = object.__hash__

    #: Dynamically predicted, direction and target both correct.
    GOOD_DYNAMIC = "good_dynamic"
    #: Surprise branch, guessed correctly, resolved not-taken (no penalty).
    GOOD_SURPRISE = "good_surprise"
    #: Dynamically guessed taken, resolved not-taken.
    MISPREDICT_TAKEN_NOT_TAKEN = "bad_taken_resolved_not_taken"
    #: Dynamically guessed not-taken, resolved taken.
    MISPREDICT_NOT_TAKEN_TAKEN = "bad_not_taken_resolved_taken"
    #: Dynamically guessed taken, resolved taken, wrong target.
    MISPREDICT_WRONG_TARGET = "bad_wrong_target"
    #: Bad surprise: first time this branch is seen.
    SURPRISE_COMPULSORY = "surprise_compulsory"
    #: Bad surprise: prediction existed but was not available in time.
    SURPRISE_LATENCY = "surprise_latency"
    #: Bad surprise: seen before, not a latency miss — a capacity miss.
    SURPRISE_CAPACITY = "surprise_capacity"

    @property
    def is_bad(self) -> bool:
        """True for outcomes that incur a performance penalty (5.1)."""
        return self not in (OutcomeKind.GOOD_DYNAMIC, OutcomeKind.GOOD_SURPRISE)

    @property
    def is_surprise(self) -> bool:
        """True for bad *surprise* outcomes."""
        return self in (
            OutcomeKind.SURPRISE_COMPULSORY,
            OutcomeKind.SURPRISE_LATENCY,
            OutcomeKind.SURPRISE_CAPACITY,
        )

    @property
    def is_mispredict(self) -> bool:
        """True for dynamic misprediction outcomes."""
        return self in (
            OutcomeKind.MISPREDICT_TAKEN_NOT_TAKEN,
            OutcomeKind.MISPREDICT_NOT_TAKEN_TAKEN,
            OutcomeKind.MISPREDICT_WRONG_TARGET,
        )
