"""Branch target buffer entries and the per-entry bimodal direction state.

"Each BTB1 entry contains a 2-bit bimodal Branch History Table (BHT)
direction prediction and a target address used for predicted taken branches"
(paper, 3.1).  The BTBP and BTB2 hold "the same type of content".

Entries are *mutable objects that migrate between levels by reference*,
mirroring the semi-exclusive protocol: when a BTB1 victim is written to the
BTB2, "any information that has been learned about that branch's behavior is
written into the BTB2" (3.3) — i.e. the learned bimodal counter, the current
target, and the PHT/CTB override bits travel with the entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.isa.opcodes import BranchKind

#: 2-bit saturating counter states.
STRONG_NOT_TAKEN, WEAK_NOT_TAKEN, WEAK_TAKEN, STRONG_TAKEN = range(4)


@dataclass(slots=True)
class BTBEntry:
    """Prediction metadata for one ever-taken branch.

    ``address`` doubles as the tag (full-address tags; see DESIGN.md §7).
    ``use_pht`` / ``use_ctb`` are the control bits "maintained in the BTB1
    and BTBP to control whether or not the PHT and/or CTB are allowed to be
    used for a particular branch" (3.1).
    """

    address: int
    target: int
    kind: BranchKind = BranchKind.COND
    counter: int = WEAK_TAKEN
    use_pht: bool = False
    use_ctb: bool = False
    #: 2-bit CTB confidence: the CTB prediction is only applied while
    #: confidence is in the upper half.  Truly unpredictable indirect
    #: targets would otherwise let a mistrained CTB override a BTB target
    #: that short-term repetition keeps correct.
    ctb_confidence: int = 2
    #: Accumulated bimodal direction mispredicts, drives PHT enablement.
    #: Accumulated (not consecutive): a loop that mispredicts only its exit
    #: still deserves pattern prediction.
    bimodal_misses: int = field(default=0, repr=False)
    #: Accumulated target mispredicts, drives CTB enablement.
    target_misses: int = field(default=0, repr=False)

    #: Mispredicts before delegating direction to the PHT.
    PHT_THRESHOLD = 2
    #: Target mispredicts before delegating the target to the CTB.
    CTB_THRESHOLD = 1

    @property
    def predict_taken(self) -> bool:
        """Bimodal direction prediction."""
        return self.counter >= WEAK_TAKEN

    @property
    def trust_ctb(self) -> bool:
        """True when a CTB prediction should override the stored target."""
        return self.use_ctb and self.ctb_confidence >= 2

    def update_ctb_confidence(self, ctb_correct: bool) -> None:
        """Saturating update of the CTB confidence counter."""
        if ctb_correct:
            self.ctb_confidence = min(3, self.ctb_confidence + 1)
        else:
            self.ctb_confidence = max(0, self.ctb_confidence - 1)

    def update_direction(self, taken: bool) -> None:
        """Train the bimodal counter and the PHT-enable heuristic."""
        predicted = self.predict_taken
        if taken:
            self.counter = min(STRONG_TAKEN, self.counter + 1)
        else:
            self.counter = max(STRONG_NOT_TAKEN, self.counter - 1)
        if predicted != taken:
            self.bimodal_misses += 1
            if self.bimodal_misses >= self.PHT_THRESHOLD:
                self.use_pht = True

    def update_target(self, target: int) -> None:
        """Train the stored target and the CTB-enable heuristic."""
        if target != self.target:
            self.target_misses += 1
            if self.kind.target_changes or self.target_misses >= self.CTB_THRESHOLD:
                self.use_ctb = True
            self.target = target
        else:
            self.target_misses = 0

    def clone(self) -> "BTBEntry":
        """Deep copy, for configurations that must not share learned state."""
        return BTBEntry(
            address=self.address,
            target=self.target,
            kind=self.kind,
            counter=self.counter,
            use_pht=self.use_pht,
            use_ctb=self.use_ctb,
            ctb_confidence=self.ctb_confidence,
            bimodal_misses=self.bimodal_misses,
            target_misses=self.target_misses,
        )

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> list:
        """This entry's fields as one positional row, the kind by name.

        ``[address, target, kind name, counter, use_pht, use_ctb,
        ctb_confidence, bimodal_misses, target_misses]``: the field order
        (:data:`STATE_FIELDS`).  The lockstep oracle compares BTB rows
        entry by entry with it; a table snapshot stores the same fields as
        columns (:meth:`repro.btb.storage.BranchTargetBuffer.state_dict`).
        """
        return [self.address, self.target, self.kind.name, self.counter,
                self.use_pht, self.use_ctb, self.ctb_confidence,
                self.bimodal_misses, self.target_misses]


#: The :class:`BTBEntry` fields in constructor order: the order of
#: :meth:`BTBEntry.state_dict` and the columns of a BTB table snapshot.
STATE_FIELDS = tuple(entry_field.name for entry_field in fields(BTBEntry))

#: Branch kinds by name.  Snapshots store a kind's name, so restoring one
#: never depends on the member order of :class:`BranchKind`.
KINDS = {kind.name: kind for kind in BranchKind}


def check_indices(name: str, indices: list, size: int) -> None:
    """Raise ``ValueError`` unless every snapshot index lies in ``[0, size)``.

    A table restore writes each row or slot through its index: a negative
    one would land in another slot and one past the table would raise
    ``IndexError`` halfway through the restore.
    """
    if indices and (min(indices) < 0 or max(indices) >= size):
        raise ValueError(
            f"{name} snapshot: an index lies outside [0, {size})")


def check_slot_columns(name: str, columns: dict, size: int) -> None:
    """Raise ``ValueError`` unless a sparse table snapshot restores as stored.

    ``columns`` holds an ``index`` list and one list per slot field (the
    PHT, CTB and surprise BHT layout): they must agree in length, and
    every index must lie in ``[0, size)``.
    """
    if len(set(map(len, columns.values()))) > 1:
        raise ValueError(f"{name} snapshot: its columns differ in length")
    check_indices(name, columns["index"], size)
