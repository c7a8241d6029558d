"""FIT — the fast index table.

"...branch predictions are possible every other cycle with the assistance of
a 64 branch Fast Index Table (FIT) which accelerates branch prediction
re-indexing on a 64 branch subset of the BTB1." (paper, 3.2)

The FIT caches, for recently predicted taken branches, the re-index
information for the *next* expected branch, letting the search pipeline
re-index in the b2 cycle instead of b3/b4 (Table 1).  We model it as a
64-entry fully associative recency table keyed by the predicted branch
address; a hit means the 2-cycle prediction rate applies (the timing policy
itself lives in :class:`repro.core.search.SearchTimingModel`).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.btb.entry import check_keys

FIT_ENTRIES = 64


class FIT:
    """64-entry LRU table of taken branches with cached re-index info."""

    def __init__(self, entries: int = FIT_ENTRIES) -> None:
        if entries <= 0:
            raise ValueError("entries must be positive")
        self.entries = entries
        # branch address -> next search index hint (the hint value is not
        # used by the timing model, only presence matters; stored for
        # completeness and for tests).
        self._table: OrderedDict[int, int] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def probe(self, branch_address: int) -> bool:
        """True when the FIT controls re-indexing for this branch."""
        if branch_address in self._table:
            self._table.move_to_end(branch_address)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def train(self, branch_address: int, next_index_hint: int) -> None:
        """Remember re-index info after a predicted taken branch."""
        self._table[branch_address] = next_index_hint
        self._table.move_to_end(branch_address)
        while len(self._table) > self.entries:
            self._table.popitem(last=False)

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot: ``[address, hint]`` pairs in LRU-to-MRU order."""
        return {
            "table": [[address, hint] for address, hint in self._table.items()],
            "hits": self.hits,
            "misses": self.misses,
        }

    def check_state(self, state: dict) -> None:
        """Raise ``ValueError`` unless the snapshot holds every key."""
        check_keys("FIT", state, ("table", "hits", "misses"))

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`."""
        self._table = OrderedDict(
            (address, hint) for address, hint in state["table"]
        )
        self.hits = state["hits"]
        self.misses = state["misses"]

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, branch_address: int) -> bool:
        return branch_address in self._table
