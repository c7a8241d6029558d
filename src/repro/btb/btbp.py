"""BTBP — the branch target buffer preload table.

"The BTBP contains 768 branches and is organized as a 128 x 6-way cache ...
implemented as a register file with multiple write ports to support the many
sources of writes into the branch prediction hierarchy: surprise installs
from statically guessed branches, branch preload instructions, BTB2 hits,
and BTB1 victims." (paper, 3.1)

The BTBP is read in parallel with the BTB1 to make predictions; it "serves
as a filter for the BTB1": new content lands here first and is only promoted
into the BTB1 once it actually makes a prediction, which keeps speculative
bulk transfers from polluting the BTB1.  It also doubles as the BTB1 victim
buffer.

Per-source write counters are kept so experiments can report where first-
level content came from.
"""

from __future__ import annotations

import enum

from repro.btb.entry import BTBEntry, check_keys
from repro.btb.storage import BranchTargetBuffer

BTBP_ROWS = 128
BTBP_WAYS = 6


class WriteSource(enum.Enum):
    """The four architected write sources of the BTBP."""

    #: Hash by identity, in C, for the per-write counter dict
    #: (:meth:`BTBP.write`); see :class:`repro.core.events.OutcomeKind`.
    __hash__ = object.__hash__

    SURPRISE = "surprise"
    PRELOAD_INSTRUCTION = "preload_instruction"
    BTB2_HIT = "btb2_hit"
    BTB1_VICTIM = "btb1_victim"


class BTBP(BranchTargetBuffer):
    """Preload table / BTB1 filter / victim buffer."""

    def __init__(self, rows: int = BTBP_ROWS, ways: int = BTBP_WAYS) -> None:
        super().__init__(rows=rows, ways=ways, name="BTBP")
        self.writes_by_source: dict[WriteSource, int] = {
            source: 0 for source in WriteSource
        }

    def write(self, entry: BTBEntry, source: WriteSource) -> BTBEntry | None:
        """Install ``entry`` attributed to ``source``; return any victim.

        BTBP victims simply age out — they are *not* written anywhere else
        (BTB2 hits were demoted to LRU in the BTB2 at transfer time and
        surprise installs were duplicated into the BTB2 at install time, so
        no information is lost beyond what the semi-exclusive design
        accepts).
        """
        self.writes_by_source[source] += 1
        return self.install(entry)

    def state_dict(self) -> dict:
        """Table state plus the per-source write counters (JSON-safe)."""
        state = super().state_dict()
        state["writes_by_source"] = {
            source.value: count for source, count in self.writes_by_source.items()
        }
        return state

    def check_state(self, state: dict) -> None:
        """The table's checks, and every write source named must be known."""
        super().check_state(state)
        check_keys(self.name, state, ("writes_by_source",))
        unknown = set(state["writes_by_source"]).difference(
            source.value for source in WriteSource)
        if unknown:
            raise ValueError(
                f"{self.name} snapshot: unknown write source(s) "
                f"{sorted(unknown)}")

    def load_state_dict(self, state: dict) -> None:
        """Restore table state and counters captured by ``state_dict``."""
        super().load_state_dict(state)
        self.writes_by_source = {
            WriteSource(name): count
            for name, count in state["writes_by_source"].items()
        }
