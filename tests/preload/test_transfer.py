"""Tests for the BTB2 bulk transfer engine timing (section 3.6)."""

import heapq
import random

from repro.btb.btb2 import BTB2
from repro.btb.entry import BTBEntry
from repro.core.config import ExclusivityMode
from repro.preload.tracker import SearchTracker, TrackerState
from repro.preload.transfer import (
    FULL_BLOCK_TRANSFER_CYCLES,
    SEARCH_PIPELINE_CYCLES,
    TransferEngine,
)

BLOCK = 0x80_0000


def make_engine(exclusivity=ExclusivityMode.SEMI_EXCLUSIVE, drained=None):
    btb2 = BTB2(rows=256, ways=2)
    installed = []
    engine = TransferEngine(
        btb2=btb2,
        install=installed.append,
        exclusivity=exclusivity,
        on_tracker_drained=drained,
    )
    return btb2, engine, installed


def tracker_for(block=BLOCK):
    return SearchTracker(block=block, state=TrackerState.FULL,
                         miss_address=block)


def reordered(state, order):
    """``state`` with its queued and in-flight rows in another order.

    ``heap`` lays each list out as a binary heap built from its rows in
    reverse (a valid heap, not a sorted list); ``shuffled`` shuffles them.
    """
    lists = {}
    for key in ("queue", "inflight"):
        rows = [list(row) for row in state[key]]
        if order == "heap":
            rows.reverse()
            heapq.heapify(rows)
        elif order == "shuffled":
            random.Random(len(rows)).shuffle(rows)
        lists[key] = rows
    return {**state, **lists}


class TestTiming:
    def test_row_completes_after_pipeline_latency(self):
        btb2, engine, installed = make_engine()
        btb2.install(BTBEntry(address=BLOCK + 4, target=0x1))
        tracker = tracker_for()
        engine.enqueue_sector(tracker, BLOCK, eligible_cycle=0, priority=0,
                              rows=1)
        engine.advance(SEARCH_PIPELINE_CYCLES - 1)
        assert installed == []
        engine.advance(SEARCH_PIPELINE_CYCLES)
        assert len(installed) == 1

    def test_one_row_issued_per_cycle(self):
        btb2, engine, installed = make_engine()
        tracker = tracker_for()
        engine.enqueue_sector(tracker, BLOCK, eligible_cycle=0, priority=0,
                              rows=4)
        # Rows issue at cycles 0..3, completing at 8..11.
        engine.advance(SEARCH_PIPELINE_CYCLES + 1)
        assert tracker.outstanding_rows == 2

    def test_full_block_takes_136_cycles(self):
        assert FULL_BLOCK_TRANSFER_CYCLES == 136
        btb2, engine, installed = make_engine()
        tracker = tracker_for()
        for sector in range(32):
            engine.enqueue_sector(tracker, BLOCK + sector * 128,
                                  eligible_cycle=0, priority=0)
        # Rows issue at cycles 0..127; the last completes at cycle 135 —
        # 136 cycles of activity, matching the paper's 128 + 8.
        engine.advance(FULL_BLOCK_TRANSFER_CYCLES - 2)
        assert tracker.outstanding_rows > 0
        engine.advance(FULL_BLOCK_TRANSFER_CYCLES - 1)
        assert tracker.outstanding_rows == 0

    def test_eligible_cycle_delays_issue(self):
        btb2, engine, installed = make_engine()
        btb2.install(BTBEntry(address=BLOCK + 4, target=0x1))
        tracker = tracker_for()
        engine.enqueue_sector(tracker, BLOCK, eligible_cycle=100, priority=0,
                              rows=1)
        engine.advance(50)
        assert installed == []
        engine.advance(100 + SEARCH_PIPELINE_CYCLES)
        assert len(installed) == 1


class TestDelivery:
    def test_hits_cloned_into_install_sink(self):
        btb2, engine, installed = make_engine()
        original = BTBEntry(address=BLOCK + 4, target=0x1)
        btb2.install(original)
        tracker = tracker_for()
        engine.enqueue_sector(tracker, BLOCK, eligible_cycle=0, priority=0,
                              rows=1)
        engine.drain()
        assert len(installed) == 1
        assert installed[0] is not original
        assert installed[0].address == BLOCK + 4

    def test_semi_exclusive_demotes_hits(self):
        btb2, engine, installed = make_engine()
        a = BTBEntry(address=BLOCK + 4, target=0x1)
        b = BTBEntry(address=BLOCK + 8, target=0x2)
        btb2.install(a)
        btb2.install(b)
        tracker = tracker_for()
        engine.enqueue_sector(tracker, BLOCK, eligible_cycle=0, priority=0,
                              rows=1)
        engine.drain()
        # Transferred entries are LRU: two new installs evict exactly them.
        v1 = btb2.install(BTBEntry(address=BLOCK + 12, target=0x3))
        v2 = btb2.install(BTBEntry(address=BLOCK + 16, target=0x4))
        assert {v1.address, v2.address} == {BLOCK + 4, BLOCK + 8}

    def test_inclusive_mode_keeps_hits_mru(self):
        btb2, engine, installed = make_engine(
            exclusivity=ExclusivityMode.INCLUSIVE
        )
        a = BTBEntry(address=BLOCK + 4, target=0x1)
        btb2.install(a)
        btb2.install(BTBEntry(address=BLOCK + 8, target=0x2))
        tracker = tracker_for()
        engine.enqueue_sector(tracker, BLOCK, eligible_cycle=0, priority=0,
                              rows=1)
        engine.drain()
        # a was touched MRU during transfer (ordered after BLOCK+8): a new
        # install evicts the older entry, not a.
        victim = btb2.install(BTBEntry(address=BLOCK + 12, target=0x3))
        assert victim.address == BLOCK + 4  # ordered first, touched first

    def test_duplicate_rows_not_requeued(self):
        btb2, engine, installed = make_engine()
        tracker = tracker_for()
        queued_first = engine.enqueue_sector(tracker, BLOCK, 0, 0, rows=4)
        queued_again = engine.enqueue_sector(tracker, BLOCK, 0, 0, rows=4)
        assert queued_first == 4
        assert queued_again == 0

    def test_priority_orders_across_trackers(self):
        btb2, engine, installed = make_engine()
        btb2.install(BTBEntry(address=BLOCK + 4, target=0x1))
        btb2.install(BTBEntry(address=BLOCK + 0x2000 + 4, target=0x2))
        low = tracker_for(BLOCK)
        high = tracker_for(BLOCK + 0x2000)
        engine.enqueue_sector(low, BLOCK, eligible_cycle=0, priority=5, rows=1)
        engine.enqueue_sector(high, BLOCK + 0x2000, eligible_cycle=0,
                              priority=0, rows=1)
        engine.drain()
        assert installed[0].address == BLOCK + 0x2000 + 4

    def test_drained_callback_fires_once_per_tracker(self):
        drained = []
        btb2, engine, installed = make_engine(
            drained=lambda tracker, cycle: drained.append((tracker, cycle))
        )
        tracker = tracker_for()
        engine.enqueue_sector(tracker, BLOCK, eligible_cycle=0, priority=0,
                              rows=4)
        engine.drain()
        assert len(drained) == 1
        assert drained[0][0] is tracker

    def test_stats(self):
        btb2, engine, installed = make_engine()
        btb2.install(BTBEntry(address=BLOCK + 4, target=0x1))
        tracker = tracker_for()
        engine.enqueue_sector(tracker, BLOCK, 0, 0, rows=4)
        engine.drain()
        assert engine.rows_read == 4
        assert engine.entries_transferred == 1


class TestCheckpoint:
    """``state_dict`` rows keep their shape; a restored engine matches."""

    def _busy_engine(self, drained):
        btb2, engine, installed = make_engine(
            drained=lambda tracker, cycle: drained.append(
                (trackers.index(tracker), cycle))
        )
        for offset in (4, 0x84, 0x1008, 0x2010):
            btb2.install(BTBEntry(address=BLOCK + offset, target=0x1))
        trackers = [tracker_for(BLOCK), tracker_for(BLOCK + 0x1000)]
        engine.enqueue_sector(trackers[0], BLOCK, eligible_cycle=0,
                              priority=1)
        engine.enqueue_sector(trackers[1], BLOCK + 0x1000, eligible_cycle=2,
                              priority=0, rows=8)
        engine.enqueue_sector(trackers[0], BLOCK + 0x2000, eligible_cycle=5,
                              priority=2)
        engine.advance(6)
        return btb2, engine, installed, trackers

    def test_mid_transfer_snapshot_restores_and_resumes_identically(self):
        """Rows restore from any order and resume as the pop-order state.

        ``state_dict`` writes the rows in pop order; the same snapshot
        with its rows in heap order (as the per-row heap engine wrote
        them) or shuffled restores to the same engine.
        """
        for order in ("pop", "heap", "shuffled"):
            self._restore_and_resume(order)

    def _restore_and_resume(self, order):
        drained = []
        btb2, engine, installed, trackers = self._busy_engine(drained)
        assert engine.pending_rows and engine.inflight_rows
        state = engine.state_dict(trackers.index)
        assert {len(row) for row in state["queue"]} == {5}
        assert {len(row) for row in state["inflight"]} == {4}
        assert state["queue"] == sorted(state["queue"])
        assert state["inflight"] == sorted(state["inflight"])
        stored = reordered(state, order)
        if order != "pop":
            assert stored["queue"] != state["queue"]

        # A fresh engine over copies of the BTB2 and trackers.
        copy_btb2 = BTB2(rows=256, ways=2)
        copy_btb2.load_state_dict(btb2.state_dict())
        copy_trackers = [tracker_for(), tracker_for()]
        for copy, original in zip(copy_trackers, trackers):
            copy.load_state_dict(original.state_dict())
        copy_installed = []
        copy_drained = []
        copy = TransferEngine(
            btb2=copy_btb2, install=copy_installed.append,
            on_tracker_drained=lambda tracker, cycle: copy_drained.append(
                (copy_trackers.index(tracker), cycle)),
        )
        copy.load_state_dict(stored, copy_trackers.__getitem__)
        assert copy.state_dict(copy_trackers.index) == state

        done = len(installed)
        for cycle in (9, 12, 30, 60):
            engine.advance(cycle)
            copy.advance(cycle)
            assert copy.rows_read == engine.rows_read
            assert copy.entries_transferred == engine.entries_transferred
        engine.drain()
        copy.drain()
        assert [entry.address for entry in copy_installed] == \
            [entry.address for entry in installed[done:]]
        assert copy_drained == drained
        assert copy.state_dict(copy_trackers.index) == \
            engine.state_dict(trackers.index)

    def test_idle_advance_only_moves_the_clock(self):
        btb2, engine, installed = make_engine()
        state = engine.state_dict(lambda tracker: 0)
        engine.advance(500)
        engine.advance(100)
        after = engine.state_dict(lambda tracker: 0)
        assert after == {**state, "clock": 500}
