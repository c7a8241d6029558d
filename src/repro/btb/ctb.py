"""CTB — tagged changing target buffer for multi-target branches.

The CTB predicts targets of branches "exhibiting multiple ... targets"
(returns, indirect branches, changing-target conditionals).  It has 2,048
entries and "is indexed based on the instruction addresses of the 12
previous taken branches" and tagged with branch instruction address bits
(paper, 3.1).  Its prediction is used only when the BTB entry's ``use_ctb``
bit is set and the tag matches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.btb.entry import check_slot_columns
from repro.btb.history import PathHistory

CTB_ENTRIES = 2048
#: Width of the branch-address tag stored per entry.
TAG_BITS = 10


@dataclass(slots=True)
class _CTBEntry:
    tag: int
    target: int


class CTB:
    """Direct-mapped, tagged, path-indexed target predictor."""

    def __init__(self, entries: int = CTB_ENTRIES) -> None:
        if entries <= 0:
            raise ValueError("entries must be positive")
        self.entries = entries
        self._table: list[_CTBEntry | None] = [None] * entries
        self.tag_hits = 0
        self.tag_misses = 0

    @staticmethod
    def _tag(branch_address: int) -> int:
        return (branch_address >> 1) & ((1 << TAG_BITS) - 1)

    def predict(self, branch_address: int, history: PathHistory) -> int | None:
        """Tagged target prediction, or ``None`` on tag mismatch."""
        slot = self._table[history.ctb_index(self.entries)]
        if slot is None or slot.tag != self._tag(branch_address):
            self.tag_misses += 1
            return None
        self.tag_hits += 1
        return slot.target

    def peek(self, branch_address: int, history: PathHistory) -> int | None:
        """Prediction without touching the hit/miss statistics (training)."""
        slot = self._table[history.ctb_index(self.entries)]
        if slot is None or slot.tag != self._tag(branch_address):
            return None
        return slot.target

    def update(self, branch_address: int, history: PathHistory, target: int) -> None:
        """Record the resolved target for this path."""
        index = history.ctb_index(self.entries)
        self._table[index] = _CTBEntry(tag=self._tag(branch_address), target=target)

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """Sparse JSON-serializable snapshot: one list per column.

        ``table`` holds the occupied slot indices in ascending order and
        each slot's ``tag`` and ``target`` in the same order.
        """
        table = self._table
        occupied = [index for index, slot in enumerate(table)
                    if slot is not None]
        slots = [table[index] for index in occupied]
        return {
            "table": {
                "index": occupied,
                "tag": [slot.tag for slot in slots],
                "target": [slot.target for slot in slots],
            },
            "tag_hits": self.tag_hits,
            "tag_misses": self.tag_misses,
        }

    def check_state(self, state: dict) -> None:
        """Raise ``ValueError`` unless the snapshot's columns agree in length
        and every slot index lies in the table."""
        check_slot_columns("CTB", state["table"], self.entries)

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`.

        Raises ``ValueError``, and changes nothing, when :meth:`check_state`
        refuses the snapshot.
        """
        self.check_state(state)
        columns = state["table"]
        table = [None] * self.entries
        for index, slot in zip(columns["index"],
                               map(_CTBEntry, columns["tag"], columns["target"])):
            table[index] = slot
        self._table = table
        self.tag_hits = state["tag_hits"]
        self.tag_misses = state["tag_misses"]
