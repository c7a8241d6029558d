"""First-level instruction cache model.

The zEC12 L1 instruction cache is 64 KB, 4-way (Table 5).  zSeries caches use
256-byte lines; the line size is configurable for sweeps.  Per the paper's
methodology (section 4), only the first-level cache is finite: every L1I miss
is an L2 hit with a fixed latency, so the model needs presence + a recent-miss
window, nothing more.

The recent-miss window exists for the BTB2 filter (section 3.5): a perceived
BTB1 miss is only treated as a likely *capacity* miss when an instruction
cache miss occurred "in the same 4 KB block".  :meth:`ICache.recent_miss_in_block`
answers exactly that question for the misses of the last ``miss_window``
cycles.
"""

from __future__ import annotations

from collections import deque

from repro.btb.entry import check_keys
from repro.caches.setassoc import CacheGeometry, SetAssociativeCache
from repro.isa.address import block_address


class ICache:
    """Finite L1I with miss tracking by 4 KB block."""

    def __init__(
        self,
        capacity_bytes: int = 64 * 1024,
        ways: int = 4,
        line_bytes: int = 256,
        miss_window: int = 256,
    ) -> None:
        sets = capacity_bytes // (ways * line_bytes)
        self._cache = SetAssociativeCache(CacheGeometry(sets, ways, line_bytes))
        self.miss_window = miss_window
        # (cycle, block_address) of recent misses, oldest first.
        self._recent_misses: deque[tuple[int, int]] = deque()

    def fetch(self, address: int, cycle: int) -> bool:
        """Fetch the line holding ``address`` at ``cycle``; True on hit."""
        hit = self._cache.access(address)
        if not hit:
            self._recent_misses.append((cycle, block_address(address)))
            self._trim(cycle)
        return hit

    def prefetch(self, address: int) -> bool:
        """Install the line for ``address`` ahead of demand.

        Returns True when the line was already present.  Prefetches initiated
        by predicted-taken branches are how the lookahead predictor "reduces
        or completely hides the first level instruction cache miss penalty"
        (section 3.2).
        """
        present = self._cache.contains(address)
        self._cache.install(address)
        return present

    def contains(self, address: int) -> bool:
        """Presence probe for the line holding ``address`` (no LRU effect)."""
        return self._cache.contains(address)

    def recent_miss_in_block(self, address: int, cycle: int) -> bool:
        """True when a miss occurred in ``address``'s 4 KB block recently."""
        self._trim(cycle)
        block = block_address(address)
        return any(b == block for _, b in self._recent_misses)

    def _trim(self, cycle: int) -> None:
        horizon = cycle - self.miss_window
        while self._recent_misses and self._recent_misses[0][0] < horizon:
            self._recent_misses.popleft()

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot: underlying tag array + recent-miss window."""
        return {
            "cache": self._cache.state_dict(),
            "recent_misses": [[cycle, block] for cycle, block in self._recent_misses],
        }

    def check_state(self, state: dict) -> None:
        """Raise ``ValueError`` unless the snapshot holds every key."""
        check_keys("icache", state, ("cache", "recent_misses"))
        check_keys("icache tag array", state["cache"],
                   ("sets", "hits", "misses"))

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`."""
        self._cache.load_state_dict(state["cache"])
        self._recent_misses = deque(
            (cycle, block) for cycle, block in state["recent_misses"]
        )

    @property
    def hits(self) -> int:
        """Demand fetch hits."""
        return self._cache.hits

    @property
    def misses(self) -> int:
        """Demand fetch misses."""
        return self._cache.misses

    @property
    def miss_rate(self) -> float:
        """Demand miss ratio."""
        return self._cache.miss_rate
