"""PHT — tagged pattern history table for multi-directional branches.

"Auxiliary structures called the Pattern History Table (PHT) and Changing
Target Buffer (CTB) are used as part of the first level branch predictor for
branches exhibiting multiple directions and targets.  They are indexed based
on the path taken to get to a branch and are tagged with branch instruction
address bits. ... These predictors are similar to the tagged ppm-like
predictors described by Michaud." (paper, 3.1)

A PHT prediction is only *used* when the BTB entry's ``use_pht`` control bit
is set, and only *trusted* when the tag matches; otherwise the bimodal
counter in the BTB entry prevails.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.btb.entry import (
    STRONG_NOT_TAKEN,
    STRONG_TAKEN,
    WEAK_TAKEN,
    check_slot_columns,
)
from repro.btb.history import PathHistory

PHT_ENTRIES = 4096
#: Width of the branch-address tag stored per entry.
TAG_BITS = 10


@dataclass(slots=True)
class _PHTEntry:
    tag: int
    counter: int


class PHT:
    """Direct-mapped, tagged, path-indexed 2-bit direction predictor."""

    def __init__(self, entries: int = PHT_ENTRIES) -> None:
        if entries <= 0:
            raise ValueError("entries must be positive")
        self.entries = entries
        self._table: list[_PHTEntry | None] = [None] * entries
        self.tag_hits = 0
        self.tag_misses = 0

    @staticmethod
    def _tag(branch_address: int) -> int:
        return (branch_address >> 1) & ((1 << TAG_BITS) - 1)

    def predict(self, branch_address: int, history: PathHistory) -> bool | None:
        """Tagged prediction, or ``None`` on tag mismatch/empty slot."""
        slot = self._table[history.pht_index(self.entries)]
        if slot is None or slot.tag != self._tag(branch_address):
            self.tag_misses += 1
            return None
        self.tag_hits += 1
        return slot.counter >= WEAK_TAKEN

    def update(self, branch_address: int, history: PathHistory, taken: bool) -> None:
        """Train (and on tag mismatch, allocate) the indexed entry."""
        index = history.pht_index(self.entries)
        tag = self._tag(branch_address)
        slot = self._table[index]
        if slot is None or slot.tag != tag:
            self._table[index] = _PHTEntry(
                tag=tag, counter=WEAK_TAKEN if taken else WEAK_TAKEN - 1
            )
            return
        if taken:
            slot.counter = min(STRONG_TAKEN, slot.counter + 1)
        else:
            slot.counter = max(STRONG_NOT_TAKEN, slot.counter - 1)

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """Sparse JSON-serializable snapshot: one list per column.

        ``table`` holds the occupied slot indices in ascending order and
        each slot's ``tag`` and ``counter`` in the same order.
        """
        table = self._table
        occupied = [index for index, slot in enumerate(table)
                    if slot is not None]
        slots = [table[index] for index in occupied]
        return {
            "table": {
                "index": occupied,
                "tag": [slot.tag for slot in slots],
                "counter": [slot.counter for slot in slots],
            },
            "tag_hits": self.tag_hits,
            "tag_misses": self.tag_misses,
        }

    def check_state(self, state: dict) -> None:
        """Raise ``ValueError`` unless the snapshot's columns agree in length
        and every slot index lies in the table."""
        check_slot_columns("PHT", state["table"], self.entries)

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`.

        Raises ``ValueError``, and changes nothing, when :meth:`check_state`
        refuses the snapshot.
        """
        self.check_state(state)
        columns = state["table"]
        table = [None] * self.entries
        for index, slot in zip(columns["index"],
                               map(_PHTEntry, columns["tag"], columns["counter"])):
            table[index] = slot
        self._table = table
        self.tag_hits = state["tag_hits"]
        self.tag_misses = state["tag_misses"]
