"""Surprise-branch direction guessing.

"Any branch not predicted by the first level predictor is called a surprise
branch and its direction (taken or not-taken) is guessed based on a tagless
32k entry one-bit BHT, its opcode and other instruction text fields."
(paper, 3.1)

The guess combines the opcode static rule (:func:`repro.isa.opcodes.static_guess`)
with a tagless, direct-mapped, one-bit history table: once a conditional
branch has resolved, its hashed slot remembers the last direction and
overrides the static rule on the next surprise encounter.  Being tagless,
the table aliases freely — that is faithful to the hardware and is what the
tests probe.
"""

from __future__ import annotations

from repro.btb.entry import check_slot_columns
from repro.isa.opcodes import BranchKind, static_guess

SURPRISE_BHT_ENTRIES = 32 * 1024


class SurpriseBHT:
    """Tagless 32k-entry one-bit direction history for surprise branches."""

    def __init__(self, entries: int = SURPRISE_BHT_ENTRIES) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self.entries = entries
        # One bit per written entry; an absent slot falls back to static.
        self._bits: dict[int, bool] = {}
        self.guesses = 0
        self.correct_guesses = 0

    def _index(self, address: int) -> int:
        # Halfword-aligned instruction addresses: drop bit 63..63 (addresses
        # are even) and fold the rest into the table.
        return (address >> 1) % self.entries

    def guess(self, address: int, kind: BranchKind, backward: bool) -> bool:
        """Direction guess for a surprise branch at ``address``."""
        self.guesses += 1
        if kind.always_taken:
            return True
        bit = self._bits.get(self._index(address))
        if bit is None:
            return static_guess(kind, backward)
        return bit

    def update(self, address: int, kind: BranchKind, taken: bool) -> None:
        """Record the resolved direction of a conditional branch."""
        if kind is BranchKind.COND:
            self._bits[self._index(address)] = taken

    def record_outcome(self, guessed: bool, taken: bool) -> None:
        """Bookkeeping for guess accuracy statistics."""
        if guessed == taken:
            self.correct_guesses += 1

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """Sparse snapshot: the written slots' indices and their bits.

        ``bits`` holds the written slot indices in ascending order and each
        slot's ``bit`` in the same order.
        """
        bits = self._bits
        written = sorted(bits)
        return {
            "bits": {
                "index": written,
                "bit": [bits[index] for index in written],
            },
            "guesses": self.guesses,
            "correct_guesses": self.correct_guesses,
        }

    def check_state(self, state: dict) -> None:
        """Raise ``ValueError`` unless the snapshot's columns agree in length
        and every slot index lies in the table."""
        check_slot_columns("surprise BHT", state["bits"], self.entries)

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`.

        Raises ``ValueError``, and changes nothing, when :meth:`check_state`
        refuses the snapshot.
        """
        self.check_state(state)
        columns = state["bits"]
        self._bits = dict(zip(columns["index"], columns["bit"]))
        self.guesses = state["guesses"]
        self.correct_guesses = state["correct_guesses"]

    @property
    def accuracy(self) -> float:
        """Fraction of recorded guesses that matched the resolution."""
        return self.correct_guesses / self.guesses if self.guesses else 0.0
