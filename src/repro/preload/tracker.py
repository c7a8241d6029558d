"""BTB2 search trackers (section 3.6).

"Three BTB2 search trackers are implemented to remember information about
BTB1 misses and instruction cache misses; and to initiate read accesses to
the BTB2 structure.  Each tracker represents one 4 KB block of address space
(instruction address bits 0:51)."

Tracker semantics (driven by :class:`repro.preload.engine.PreloadEngine`;
the exact search launched also depends on the configuration's
``filter_mode``):

* both valid bits set -> *fully active*: reads to all 128 rows of the block;
* BTB1-miss valid only -> partial search of the 4 rows (128 bytes) at the
  miss address; if the I-cache-miss bit is still invalid when the partial
  search completes, the tracker is invalidated;
* I-cache-miss valid only -> no BTB2 search (waits for a BTB1 miss).

Allocation never steals a tracker with a search in flight: when all
trackers are busy, new BTB1-miss reports are dropped on the floor and
counted (``dropped_miss_reports`` — the saturation the Figure 7 tracker
sweep measures).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields

from repro.btb.entry import check_keys


class TrackerState(enum.Enum):
    """Lifecycle of one search tracker."""

    FREE = "free"
    #: Holds an I-cache miss, waiting for a BTB1 miss (no search).
    ICACHE_ONLY = "icache_only"
    #: Holds a BTB1 miss only; a partial search is (or will be) in flight.
    PARTIAL = "partial"
    #: Fully active; the full-block search is in flight.
    FULL = "full"


@dataclass
class SearchTracker:
    """One 4 KB block tracker."""

    block: int = 0
    state: TrackerState = TrackerState.FREE
    btb1_miss_valid: bool = False
    icache_miss_valid: bool = False
    #: Full search address bits of the BTB1 miss (partial-search anchor and
    #: demand-quartile selector for steering).
    miss_address: int = 0
    #: Cycle the tracker (re)activated; used for oldest-first replacement.
    activated_cycle: int = 0
    #: BLOCK-mode wait expiry cycle, or ``None`` when no wait is armed.
    #: Kept *on the tracker* (not keyed by object id in the engine) so a
    #: recycled tracker can never inherit a stale deadline: :meth:`reset`
    #: disarms it atomically with the rest of the state.
    block_deadline: int | None = None
    #: Row reads issued and not yet completed.
    outstanding_rows: int = field(default=0, repr=False)
    #: Rows already enqueued for this activation (avoid duplicate reads on
    #: partial -> full upgrade).
    enqueued_rows: set[int] = field(default_factory=set, repr=False)
    #: First-level installs delivered by this activation's transfers
    #: (telemetry only; summarised in the ``transfer_batch`` trace event).
    transferred_entries: int = field(default=0, repr=False)

    @property
    def fully_active(self) -> bool:
        """True when both the BTB1-miss and I-cache-miss bits are valid."""
        return self.btb1_miss_valid and self.icache_miss_valid

    def reset(self) -> None:
        """Return the tracker to the FREE state."""
        self.block = 0
        self.state = TrackerState.FREE
        self.btb1_miss_valid = False
        self.icache_miss_valid = False
        self.miss_address = 0
        self.activated_cycle = 0
        self.block_deadline = None
        self.outstanding_rows = 0
        self.enqueued_rows = set()
        self.transferred_entries = 0

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of this tracker."""
        return {
            "block": self.block,
            "state": self.state.value,
            "btb1_miss_valid": self.btb1_miss_valid,
            "icache_miss_valid": self.icache_miss_valid,
            "miss_address": self.miss_address,
            "activated_cycle": self.activated_cycle,
            "block_deadline": self.block_deadline,
            "outstanding_rows": self.outstanding_rows,
            "enqueued_rows": sorted(self.enqueued_rows),
            "transferred_entries": self.transferred_entries,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`."""
        self.block = state["block"]
        self.state = TrackerState(state["state"])
        self.btb1_miss_valid = state["btb1_miss_valid"]
        self.icache_miss_valid = state["icache_miss_valid"]
        self.miss_address = state["miss_address"]
        self.activated_cycle = state["activated_cycle"]
        self.block_deadline = state["block_deadline"]
        self.outstanding_rows = state["outstanding_rows"]
        self.enqueued_rows = set(state["enqueued_rows"])
        self.transferred_entries = state["transferred_entries"]


class TrackerFile:
    """The fixed pool of search trackers with allocation/matching policy."""

    def __init__(self, count: int = 3) -> None:
        self.count = count
        self.trackers = [SearchTracker() for _ in range(count)]
        self.allocations = 0
        self.dropped_miss_reports = 0
        self.dropped_icache_reports = 0

    def find(self, block: int) -> SearchTracker | None:
        """Tracker currently assigned to ``block``, if any."""
        for tracker in self.trackers:
            if tracker.state is not TrackerState.FREE and tracker.block == block:
                return tracker
        return None

    def allocate(
        self,
        block: int,
        cycle: int,
        state: TrackerState = TrackerState.PARTIAL,
    ) -> SearchTracker | None:
        """Claim a tracker for ``block``; ``None`` when none can be freed.

        The tracker is claimed in ``state`` immediately so a second
        allocation cannot hand out the same tracker.  Free trackers are used
        first; otherwise the oldest ICACHE_ONLY tracker is recycled (it has
        no search in flight).  Trackers with searches in flight are never
        stolen.
        """
        for tracker in self.trackers:
            if tracker.state is TrackerState.FREE:
                self._assign(tracker, block, cycle, state)
                return tracker
        candidates = [
            tracker
            for tracker in self.trackers
            if tracker.state is TrackerState.ICACHE_ONLY
        ]
        if candidates:
            tracker = min(candidates, key=lambda t: t.activated_cycle)
            tracker.reset()
            self._assign(tracker, block, cycle, state)
            return tracker
        return None

    def _assign(
        self, tracker: SearchTracker, block: int, cycle: int, state: TrackerState
    ) -> None:
        tracker.block = block
        tracker.activated_cycle = cycle
        tracker.state = state
        self.allocations += 1

    def state_dict(self) -> dict:
        """Snapshot of every tracker (by slot) plus file counters."""
        return {
            "trackers": [tracker.state_dict() for tracker in self.trackers],
            "allocations": self.allocations,
            "dropped_miss_reports": self.dropped_miss_reports,
            "dropped_icache_reports": self.dropped_icache_reports,
        }

    def check_state(self, state: dict) -> None:
        """Raise ``ValueError`` unless :meth:`load_state_dict` restores it whole.

        The file's keys and every tracker's fields must be present, and
        every tracker state name known.
        """
        check_keys("tracker file", state, (
            "trackers", "allocations", "dropped_miss_reports",
            "dropped_icache_reports"))
        names = [tracker_field.name for tracker_field in fields(SearchTracker)]
        states = {tracker_state.value for tracker_state in TrackerState}
        for tracker in state["trackers"]:
            check_keys("tracker", tracker, names)
            if tracker["state"] not in states:
                raise ValueError(
                    f"tracker snapshot: unknown state {tracker['state']!r}")

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`.

        Tracker *objects* are reused (slot identity is the architected
        identity — the transfer engine's queued reads reference trackers by
        slot index across a checkpoint).
        """
        for tracker, tracker_state in zip(self.trackers, state["trackers"]):
            tracker.load_state_dict(tracker_state)
        self.allocations = state["allocations"]
        self.dropped_miss_reports = state["dropped_miss_reports"]
        self.dropped_icache_reports = state["dropped_icache_reports"]

    def slot(self, tracker: SearchTracker) -> int:
        """Index of ``tracker`` in the file (stable telemetry identity)."""
        return self.trackers.index(tracker)

    def busy(self) -> int:
        """Number of non-free trackers."""
        return sum(
            1 for tracker in self.trackers if tracker.state is not TrackerState.FREE
        )
