"""The BTB2 preload engine: miss filtering, trackers, steering, transfers.

This facade implements sections 3.5-3.7 end to end:

* perceived BTB1 misses (from :class:`repro.core.search.LookaheadSearch`)
  arrive via :meth:`report_btb1_miss`;
* demand I-cache misses arrive via :meth:`report_icache_miss`;
* trackers correlate the two per 4 KB block; fully active trackers launch a
  full 128-row search, BTB1-miss-only trackers launch a 4-row partial search
  (``FilterMode.PARTIAL``, the implemented design) and are invalidated if no
  I-cache miss shows up by the time the partial search completes;
* full searches are steered by the ordering table when enabled;
* the transfer engine moves tag-matching BTB2 content into the BTBP with
  the architected 7 + 8 + 1-row-per-cycle timing.
"""

from __future__ import annotations

from repro.btb.btb2 import BTB2
from repro.caches.icache import ICache
from repro.core.config import FilterMode, PredictorConfig
from repro.core.events import MissReport
from repro.core.hierarchy import FirstLevelPredictor
from repro.isa.address import (
    ROWS_PER_SECTOR,
    SECTOR_BYTES,
    block_address,
    sector_address,
)
from repro.preload.ordering import OrderingTable, OrderingTracker, classify_sectors
from repro.preload.tracker import SearchTracker, TrackerFile, TrackerState
from repro.preload.transfer import MISS_TO_SEARCH_START, TransferEngine

#: Cycles a BLOCK-mode (search-suppressed) tracker waits for an I-cache miss
#: before invalidating — matched to the partial search it replaces.
BLOCK_MODE_WAIT_CYCLES = MISS_TO_SEARCH_START + 4 + 8

#: Priority bands for the transfer queue (lower = served first).
PRIORITY_PARTIAL = 0
PRIORITY_DEMAND = 1
PRIORITY_REST_BASE = 2


class PreloadEngine:
    """Second-level access control and bulk preload orchestration."""

    def __init__(
        self,
        config: PredictorConfig,
        btb2: BTB2,
        hierarchy: FirstLevelPredictor,
        icache: ICache | None = None,
    ) -> None:
        self.config = config
        self.btb2 = btb2
        self.hierarchy = hierarchy
        self.icache = icache
        self.trackers = TrackerFile(count=config.tracker_count)
        self.ordering_table = OrderingTable(
            sets=config.ordering_table_sets, ways=config.ordering_table_ways
        )
        self.ordering_tracker = OrderingTracker(self.ordering_table)
        self.transfer = TransferEngine(
            btb2=btb2,
            install=self._install_transfer,
            exclusivity=config.exclusivity,
            on_tracker_drained=self._tracker_drained,
        )
        # Trackers that may have a BLOCK-mode wait armed.  The deadline
        # itself lives on the tracker (``SearchTracker.block_deadline``) so
        # ``reset()`` disarms it; this list only keeps ``advance`` from
        # scanning the tracker file when no wait can possibly be pending.
        self._block_waiters: list[SearchTracker] = []
        #: Optional :class:`repro.audit.Auditor`; ``None`` = no checking.
        self.audit = None
        #: Optional :class:`repro.telemetry.Telemetry`; ``None`` = no tracing.
        self.telemetry = None
        self.full_searches = 0
        self.partial_searches = 0
        self.partial_upgrades = 0
        self.partial_invalidations = 0
        self.filtered_misses = 0
        self.duplicate_miss_reports = 0
        self.decode_miss_reports = 0
        self.followed_blocks = 0

    # -- inputs ---------------------------------------------------------------

    def report_btb1_miss(self, report: MissReport) -> None:
        """Handle one perceived first-level miss (3.4 -> 3.5 -> 3.6)."""
        self._report_btb1_miss(report)
        if self.audit is not None:
            self.audit.on_tracker_event(self, "btb1_miss")

    def _report_btb1_miss(self, report: MissReport) -> None:
        block = block_address(report.search_address)
        tracker = self.trackers.find(block)
        if tracker is not None:
            if tracker.btb1_miss_valid:
                self.duplicate_miss_reports += 1
                return
            tracker.btb1_miss_valid = True
            tracker.miss_address = report.search_address
            self._activate(tracker, report.cycle)
            return
        tracker = self.trackers.allocate(block, report.cycle,
                                         state=TrackerState.PARTIAL)
        if tracker is None:
            self.trackers.dropped_miss_reports += 1
            return
        if self.telemetry is not None:
            self.telemetry.on_tracker_allocate(
                report.cycle, self.trackers.slot(tracker), block, "partial"
            )
        tracker.btb1_miss_valid = True
        tracker.miss_address = report.search_address
        if self.icache is not None and self.icache.recent_miss_in_block(
            report.search_address, report.cycle
        ):
            tracker.icache_miss_valid = True
        self._activate(tracker, report.cycle)

    def report_icache_miss(self, address: int, cycle: int) -> None:
        """Record a demand I-cache miss for tracker correlation."""
        self._report_icache_miss(address, cycle)
        if self.audit is not None:
            self.audit.on_tracker_event(self, "icache_miss")

    def _report_icache_miss(self, address: int, cycle: int) -> None:
        block = block_address(address)
        tracker = self.trackers.find(block)
        if tracker is None:
            tracker = self.trackers.allocate(block, cycle,
                                             state=TrackerState.ICACHE_ONLY)
            if tracker is None:
                self.trackers.dropped_icache_reports += 1
                return
            if self.telemetry is not None:
                self.telemetry.on_tracker_allocate(
                    cycle, self.trackers.slot(tracker), block, "icache_only"
                )
            tracker.icache_miss_valid = True
            return
        if tracker.icache_miss_valid:
            return
        tracker.icache_miss_valid = True
        if tracker.btb1_miss_valid and tracker.state is not TrackerState.FULL:
            # Partial (or BLOCK-mode waiting) tracker becomes fully active.
            self.partial_upgrades += 1
            tracker.block_deadline = None
            self._start_full_search(tracker, cycle)

    def report_decode_miss(self, address: int, cycle: int) -> None:
        """Alternative BTB1-miss definition (3.4 extension).

        Fired when a statically-guessed-taken surprise branch reaches
        decode: a later, less speculative miss indication used *in addition
        to* the search-based one when ``decode_miss_reporting`` is enabled.
        """
        self.decode_miss_reports += 1
        report = MissReport(search_address=address, cycle=cycle)
        if self.telemetry is not None:
            # Decode-synthesized reports bypass the searcher's flush, so the
            # perceived-miss trace event is emitted here instead.
            self.telemetry.on_miss_report(report)
        self.report_btb1_miss(report)

    def _install_transfer(self, entry) -> None:
        """Install one transferred entry, optionally chasing its target.

        With ``multi_block_transfer`` (section 6 future work), the first
        transferred branch whose target leaves the block pulls its target
        block into a full search too — bounded to one follow per delivery
        to respect the paper's bandwidth warning ("the number of blocks to
        transfer can exponentially exceed the available bandwidth").
        """
        self.hierarchy.preload_write(entry)
        if not self.config.multi_block_transfer:
            return
        source_block = block_address(entry.address)
        target_block = block_address(entry.target)
        if target_block == source_block:
            return
        if self.trackers.find(target_block) is not None:
            return
        tracker = self.trackers.allocate(target_block, self.transfer.clock)
        if tracker is None:
            return
        if self.telemetry is not None:
            self.telemetry.on_tracker_allocate(
                self.transfer.clock, self.trackers.slot(tracker),
                target_block, "followed",
            )
        tracker.btb1_miss_valid = True
        tracker.icache_miss_valid = True  # followed blocks bypass the filter
        tracker.miss_address = entry.target
        self.followed_blocks += 1
        self._start_full_search(tracker, self.transfer.clock)

    def observe_completion(self, address: int) -> None:
        """Feed one completing instruction to the ordering tracker (3.7)."""
        if self.config.steering_enabled:
            self.ordering_tracker.observe(address)

    def idle(self) -> bool:
        """Whether :meth:`advance` has nothing to do but move the clock.

        True when no BTB2 row read is queued or in flight and no BLOCK-mode
        wait is armed.  Then ``advance(cycle)`` only raises
        ``transfer.clock`` to ``cycle``, so a caller that advances once per
        record (``Simulator.step``) may skip the call and raise the clock
        itself.  Only this engine's own methods (the reports,
        :meth:`advance`, :meth:`flush`, :meth:`load_state_dict`) change the
        answer.
        """
        transfer = self.transfer
        return not (transfer._queue or transfer._inflight
                    or self._block_waiters)

    def advance(self, cycle: int) -> None:
        """Advance transfer timing and expire BLOCK-mode waits."""
        self.transfer.advance(cycle)
        if self._block_waiters:
            still_waiting = []
            for tracker in self._block_waiters:
                deadline = tracker.block_deadline
                if deadline is None:
                    # Disarmed since arming: reset/recycled, or upgraded to
                    # a full search by an I-cache miss.  Drop silently.
                    continue
                if deadline > cycle:
                    still_waiting.append(tracker)
                    continue
                tracker.block_deadline = None
                if not tracker.fully_active:
                    self.partial_invalidations += 1
                    if self.telemetry is not None:
                        self.telemetry.on_tracker_expire(
                            cycle, self.trackers.slot(tracker),
                            tracker.block, "block_wait_expired",
                        )
                    tracker.reset()
            self._block_waiters = still_waiting
            if self.audit is not None:
                self.audit.on_tracker_event(self, "block_wait_expiry")

    # -- activation -------------------------------------------------------------

    def _activate(self, tracker: SearchTracker, cycle: int) -> None:
        if tracker.fully_active or self.config.filter_mode is FilterMode.OFF:
            self._start_full_search(tracker, cycle)
            return
        self.filtered_misses += 1
        if self.config.filter_mode is FilterMode.PARTIAL:
            self._start_partial_search(tracker, cycle)
        else:  # FilterMode.BLOCK: no search; wait for an I-cache miss.
            tracker.state = TrackerState.PARTIAL
            tracker.block_deadline = cycle + BLOCK_MODE_WAIT_CYCLES
            if tracker not in self._block_waiters:
                self._block_waiters.append(tracker)
            if self.telemetry is not None:
                self.telemetry.on_tracker_arm(
                    cycle, self.trackers.slot(tracker), tracker.block,
                    "block_wait", 0,
                )

    def _start_partial_search(self, tracker: SearchTracker, cycle: int) -> None:
        """4-row (128 B) search at the miss address (3.5/3.6)."""
        tracker.state = TrackerState.PARTIAL
        self.partial_searches += 1
        queued = self.transfer.enqueue_sector(
            tracker,
            sector_address(tracker.miss_address),
            eligible_cycle=cycle + MISS_TO_SEARCH_START,
            priority=PRIORITY_PARTIAL,
            rows=self.config.partial_search_rows,
        )
        if self.telemetry is not None:
            slot = self.trackers.slot(tracker)
            self.telemetry.on_tracker_arm(
                cycle, slot, tracker.block, "partial",
                self.config.partial_search_rows,
            )
            if queued:
                sector = (
                    sector_address(tracker.miss_address)
                    - block_address(tracker.miss_address)
                ) // SECTOR_BYTES
                self.telemetry.on_btb2_search_start(
                    cycle, slot, sector, queued, PRIORITY_PARTIAL
                )

    def _start_full_search(self, tracker: SearchTracker, cycle: int) -> None:
        """Steered full-block search: all 128 rows of the 4 KB block."""
        tracker.state = TrackerState.FULL
        self.full_searches += 1
        entry = (
            self.ordering_table.lookup(tracker.miss_address)
            if self.config.steering_enabled
            else None
        )
        eligible = cycle + MISS_TO_SEARCH_START
        block = block_address(tracker.miss_address)
        sectors = list(classify_sectors(entry, tracker.miss_address))
        if self.telemetry is not None:
            self.telemetry.on_tracker_arm(
                cycle, self.trackers.slot(tracker), tracker.block, "full",
                len(sectors) * ROWS_PER_SECTOR,
            )
        for sector, priority_class in sectors:
            priority = (
                PRIORITY_DEMAND
                if priority_class == 0
                else PRIORITY_REST_BASE + priority_class - 1
            )
            queued = self.transfer.enqueue_sector(
                tracker,
                block + sector * SECTOR_BYTES,
                eligible_cycle=eligible,
                priority=priority,
                rows=ROWS_PER_SECTOR,
            )
            if self.telemetry is not None and queued:
                self.telemetry.on_btb2_search_start(
                    cycle, self.trackers.slot(tracker), sector, queued,
                    priority,
                )

    # -- completion -----------------------------------------------------------

    def _tracker_drained(self, tracker: SearchTracker, cycle: int) -> None:
        """All in-flight rows of ``tracker`` completed."""
        if tracker.state is TrackerState.PARTIAL:
            if tracker.icache_miss_valid:
                # I-cache miss arrived exactly at completion: upgrade.
                self.partial_upgrades += 1
                self._start_full_search(tracker, cycle)
            else:
                self.partial_invalidations += 1
                self._note_batch_done(tracker, cycle, "partial_invalidated")
                tracker.reset()
        elif tracker.state is TrackerState.FULL:
            self._note_batch_done(tracker, cycle, "drained")
            tracker.reset()
        if self.audit is not None:
            self.audit.on_tracker_event(self, "tracker_drained")

    def _note_batch_done(self, tracker: SearchTracker, cycle: int,
                         reason: str) -> None:
        """Emit the end-of-activation transfer summary and expiry events."""
        if self.telemetry is not None:
            slot = self.trackers.slot(tracker)
            self.telemetry.on_transfer_batch(
                cycle, slot, tracker.block,
                len(tracker.enqueued_rows), tracker.transferred_entries,
            )
            self.telemetry.on_tracker_expire(
                cycle, slot, tracker.block, reason
            )

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of trackers, transfer machinery, steering and counters.

        The BTB2 itself is owned by the simulator and serialized there;
        tracker references inside the transfer engine are encoded as
        tracker-file slot indices (the stable architected identity).
        """
        return {
            "trackers": self.trackers.state_dict(),
            "ordering_table": self.ordering_table.state_dict(),
            "ordering_tracker": self.ordering_tracker.state_dict(),
            "transfer": self.transfer.state_dict(self.trackers.slot),
            "block_waiters": [
                self.trackers.slot(tracker) for tracker in self._block_waiters
            ],
            "counters": {
                "full_searches": self.full_searches,
                "partial_searches": self.partial_searches,
                "partial_upgrades": self.partial_upgrades,
                "partial_invalidations": self.partial_invalidations,
                "filtered_misses": self.filtered_misses,
                "duplicate_miss_reports": self.duplicate_miss_reports,
                "decode_miss_reports": self.decode_miss_reports,
                "followed_blocks": self.followed_blocks,
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`."""
        self.trackers.load_state_dict(state["trackers"])
        self.ordering_table.load_state_dict(state["ordering_table"])
        self.ordering_tracker.load_state_dict(state["ordering_tracker"])
        self.transfer.load_state_dict(
            state["transfer"], lambda slot: self.trackers.trackers[slot]
        )
        self._block_waiters = [
            self.trackers.trackers[slot] for slot in state["block_waiters"]
        ]
        counters = state["counters"]
        self.full_searches = counters["full_searches"]
        self.partial_searches = counters["partial_searches"]
        self.partial_upgrades = counters["partial_upgrades"]
        self.partial_invalidations = counters["partial_invalidations"]
        self.filtered_misses = counters["filtered_misses"]
        self.duplicate_miss_reports = counters["duplicate_miss_reports"]
        self.decode_miss_reports = counters["decode_miss_reports"]
        self.followed_blocks = counters["followed_blocks"]

    def flush(self) -> None:
        """Finish outstanding work (end of simulation).

        Commits the in-flight ordering-table entry, then drains every
        queued and in-flight BTB2 row read — transferred entries still
        install into the BTBP, so end-of-run structure statistics count
        the complete transfer stream, not just what the trace overlapped.
        """
        self.ordering_tracker.flush()
        self.transfer.drain()
