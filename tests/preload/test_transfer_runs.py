"""Row runs against the per-row heap they replaced.

:class:`RowHeapTransferEngine` is the transfer engine as it was before
reads were held as row runs: one heap entry per queued row, popped in
(priority, sequence) order, and one heap entry per in-flight row, popped
in (completion, sequence) order.  It stays here as the reference.  Both
engines are driven by the same hypothesis-drawn calls (``enqueue_sector``
with mixed priorities, 1-4 rows that may overlap rows the tracker already
queued, eligible cycles ahead of the clock; ``advance`` to non-decreasing
cycles, which often stop inside a run; ``drain``; a restore from the
snapshot, its rows shuffled) and must agree after every call: every delivered row with its completion cycle and hits, every
installed clone, every drained callback, the counters, the BTB2 and
tracker state, and the snapshot (whose rows the reference writes in heap
order and the runs in pop order).
"""

from __future__ import annotations

import heapq
import random
from typing import Callable

from hypothesis import example, given, settings, strategies as st

from repro.btb.btb2 import BTB2
from repro.btb.entry import BTBEntry
from repro.core.config import ExclusivityMode
from repro.isa.address import ROW_BYTES
from repro.preload.tracker import SearchTracker, TrackerState
from repro.preload.transfer import (
    FULL_BLOCK_TRANSFER_CYCLES,
    SEARCH_PIPELINE_CYCLES,
    TransferEngine,
)


class RowHeapTransferEngine:
    """The per-row heap transfer engine: the reference for row runs."""

    def __init__(
        self,
        btb2: BTB2,
        install: Callable[[BTBEntry], None],
        exclusivity: ExclusivityMode = ExclusivityMode.SEMI_EXCLUSIVE,
        on_tracker_drained: Callable[[SearchTracker, int], None] | None = None,
    ) -> None:
        self.btb2 = btb2
        self.install = install
        self.exclusivity = exclusivity
        self.on_tracker_drained = on_tracker_drained
        self._queue: list[tuple[int, int, int, int, SearchTracker]] = []
        self._sequence = 0
        self._inflight: list[tuple[int, int, int, SearchTracker]] = []
        self._next_issue_cycle = 0
        self.clock = 0
        self.rows_read = 0
        self.entries_transferred = 0
        self.telemetry = None
        self.probe = None

    def enqueue_sector(self, tracker, sector_address, eligible_cycle,
                       priority, rows=4):
        queued = 0
        enqueued_rows = tracker.enqueued_rows
        for step in range(rows):
            row_address = sector_address + step * ROW_BYTES
            if row_address in enqueued_rows:
                continue
            enqueued_rows.add(row_address)
            tracker.outstanding_rows += 1
            self._sequence += 1
            heapq.heappush(
                self._queue,
                (priority, self._sequence, row_address, eligible_cycle,
                 tracker),
            )
            queued += 1
        return queued

    def advance(self, cycle):
        self.clock = max(self.clock, cycle)
        if not self._queue and not self._inflight:
            return
        self._issue_until(self.clock)
        self._complete_until(self.clock)

    def _issue_until(self, cycle):
        queue = self._queue
        inflight = self._inflight
        while queue:
            _, sequence, row_address, eligible_cycle, tracker = queue[0]
            issue = max(self._next_issue_cycle, eligible_cycle)
            if issue > cycle:
                break
            heapq.heappop(queue)
            self._next_issue_cycle = issue + 1
            self.rows_read += 1
            heapq.heappush(
                inflight,
                (issue + SEARCH_PIPELINE_CYCLES, sequence, row_address,
                 tracker),
            )

    def _complete_until(self, cycle):
        while self._inflight and self._inflight[0][0] <= cycle:
            completion, _, row_address, tracker = heapq.heappop(self._inflight)
            hits = self._deliver_row(row_address)
            tracker.transferred_entries += hits
            if self.telemetry is not None:
                self.telemetry.on_btb2_row(completion, row_address, hits)
            tracker.outstanding_rows -= 1
            if (
                tracker.outstanding_rows == 0
                and self.on_tracker_drained is not None
            ):
                self.on_tracker_drained(tracker, completion)

    def _deliver_row(self, row_address):
        hits = self.btb2.search_row(row_address)
        for entry in hits:
            if self.exclusivity is ExclusivityMode.INCLUSIVE:
                self.btb2.touch(entry)
            else:
                self.btb2.demote(entry)
            self.btb2.transfer_hits += 1
            self.entries_transferred += 1
            self.install(entry.clone())
        if self.probe is not None:
            self.probe.on_row_delivered(
                row_address, [entry.address for entry in hits]
            )
        return len(hits)

    def state_dict(self, slot_of):
        return {
            "queue": [
                [priority, sequence, row_address, eligible_cycle,
                 slot_of(tracker)]
                for priority, sequence, row_address, eligible_cycle, tracker
                in self._queue
            ],
            "inflight": [
                [completion, sequence, row_address, slot_of(tracker)]
                for completion, sequence, row_address, tracker in self._inflight
            ],
            "sequence": self._sequence,
            "next_issue_cycle": self._next_issue_cycle,
            "clock": self.clock,
            "rows_read": self.rows_read,
            "entries_transferred": self.entries_transferred,
        }

    def load_state_dict(self, state, tracker_at):
        self._queue = [
            (priority, sequence, row_address, eligible_cycle, tracker_at(slot))
            for priority, sequence, row_address, eligible_cycle, slot
            in state["queue"]
        ]
        heapq.heapify(self._queue)
        self._inflight = [
            (completion, sequence, row_address, tracker_at(slot))
            for completion, sequence, row_address, slot in state["inflight"]
        ]
        heapq.heapify(self._inflight)
        self._sequence = state["sequence"]
        self._next_issue_cycle = state["next_issue_cycle"]
        self.clock = state["clock"]
        self.rows_read = state["rows_read"]
        self.entries_transferred = state["entries_transferred"]

    @property
    def pending_rows(self):
        return len(self._queue)

    @property
    def inflight_rows(self):
        return len(self._inflight)

    def drain(self):
        horizon = self.clock
        while self._queue or self._inflight:
            horizon += FULL_BLOCK_TRANSFER_CYCLES
            self.advance(horizon)


# -- one engine under test, with its own BTB2, trackers and event log ---------

#: Three trackers, each searching its own 4 KB block.  With the small BTB2
#: below, the three blocks index the same sets, so every set mixes entries
#: that match a row with aliases that do not.
BLOCKS = (0x40_0000, 0x40_1000, 0x40_2000)
BTB2_ROWS = 64
#: Rows of each block the drawn reads and entries cover.
SPAN_ROWS = 12


class _Observer:
    """Telemetry and lockstep stand-in: logs each delivered row."""

    def __init__(self, log: list) -> None:
        self.log = log

    def on_btb2_row(self, cycle, row, hits) -> None:
        self.log.append(("row", cycle, row, hits))

    def on_row_delivered(self, row, addresses) -> None:
        self.log.append(("probe", row, addresses))


class Rig:
    """One engine, its BTB2, trackers and everything it is seen to do."""

    def __init__(self, engine_class, entries, exclusivity, observed,
                 upgrades) -> None:
        self.btb2 = BTB2(rows=BTB2_ROWS, ways=2)
        for address, target in entries:
            self.btb2.install(BTBEntry(address=address, target=target))
        self.trackers = [
            SearchTracker(block=block, state=TrackerState.FULL,
                          miss_address=block)
            for block in BLOCKS
        ]
        self.log: list = []
        self.upgrades = set(upgrades)
        self.engine = engine_class(
            btb2=self.btb2,
            install=lambda entry: self.log.append(
                ("install", entry.state_dict())),
            exclusivity=exclusivity,
            on_tracker_drained=self._drained,
        )
        if observed:
            self.engine.telemetry = self.engine.probe = _Observer(self.log)

    def _drained(self, tracker, cycle) -> None:
        """Log the drain; a partial tracker upgrades, the rest reset.

        An upgrade queues the tracker's first eight rows from inside the
        callback, as ``PreloadEngine._tracker_drained`` queues a full
        search: the rows its earlier reads covered are skipped.
        """
        slot = self.trackers.index(tracker)
        self.log.append(("drained", slot, cycle))
        if slot in self.upgrades:
            self.upgrades.discard(slot)
            self.engine.enqueue_sector(tracker, BLOCKS[slot], cycle + 7, 1,
                                       rows=8)
        else:
            tracker.reset()
            tracker.block = BLOCKS[slot]

    def call(self, step) -> None:
        kind = step[0]
        if kind == "enqueue":
            _, slot, offset, rows, ahead, priority = step
            self.log.append(("queued", self.engine.enqueue_sector(
                self.trackers[slot], BLOCKS[slot] + offset * ROW_BYTES,
                self.engine.clock + ahead, priority, rows)))
        elif kind == "advance":
            self.engine.advance(self.engine.clock + step[1])
        elif kind == "drain":
            self.engine.drain()
        else:
            self.restore()

    def restore(self) -> None:
        """Continue on a fresh engine restored from this one's snapshot.

        The snapshot's rows are shuffled first: a restore takes them in
        any order.
        """
        engine = self.engine
        state = engine.state_dict(self.trackers.index)
        for key in ("queue", "inflight"):
            random.Random(len(state[key])).shuffle(state[key])
        self.engine = type(engine)(
            btb2=self.btb2, install=engine.install,
            exclusivity=engine.exclusivity,
            on_tracker_drained=engine.on_tracker_drained,
        )
        self.engine.telemetry = engine.telemetry
        self.engine.probe = engine.probe
        self.engine.load_state_dict(state, self.trackers.__getitem__)

    def seen(self) -> dict:
        engine = self.engine
        return {
            "log": self.log,
            "clock": engine.clock,
            "rows_read": engine.rows_read,
            "entries_transferred": engine.entries_transferred,
            "pending_rows": engine.pending_rows,
            "inflight_rows": engine.inflight_rows,
            "btb2": self.btb2.state_dict(),
            "trackers": [tracker.state_dict() for tracker in self.trackers],
        }

    def snapshot(self) -> dict:
        return self.engine.state_dict(self.trackers.index)


def in_pop_order(state: dict) -> dict:
    """A snapshot with its rows in issue and completion order."""
    return {**state, "queue": sorted(state["queue"]),
            "inflight": sorted(state["inflight"])}


# -- the drawn programs -----------------------------------------------------------

entry_addresses = st.builds(
    lambda block, row, offset: block + row * ROW_BYTES + offset,
    st.sampled_from(BLOCKS), st.integers(0, SPAN_ROWS - 1),
    st.integers(0, ROW_BYTES // 2 - 1).map(lambda half: half * 2),
)
entries = st.lists(st.tuples(entry_addresses, st.integers(1, 1 << 20)),
                   max_size=40)
#: Short waits and short advances, often, so that advances stop inside
#: runs at issue and at completion.
short = st.integers(0, 3)
enqueue = st.tuples(
    st.just("enqueue"), st.integers(0, len(BLOCKS) - 1),
    st.integers(0, SPAN_ROWS - 4), st.integers(1, 4),
    short | st.integers(0, 24), st.integers(0, 3),
)
advance = st.tuples(st.just("advance"), short | st.integers(0, 12))
program = st.lists(
    st.one_of(enqueue, enqueue, advance, advance, advance,
              st.just(("drain",)), st.just(("restore",))),
    min_size=1, max_size=40,
)


@settings(max_examples=300, deadline=None)
# Four rows issue in one advance and complete across the next two.
@example(entries=[(BLOCKS[0] + 0x24, 1)],
         steps=[("enqueue", 0, 0, 4, 0, 1), ("advance", 3), ("advance", 6),
                ("restore",), ("advance", 2)],
         exclusivity=ExclusivityMode.SEMI_EXCLUSIVE, observed=True,
         upgrades=set())
@given(entries=entries, steps=program,
       exclusivity=st.sampled_from([ExclusivityMode.SEMI_EXCLUSIVE,
                                    ExclusivityMode.INCLUSIVE]),
       observed=st.booleans(),
       upgrades=st.sets(st.integers(0, len(BLOCKS) - 1)))
def test_row_runs_match_the_per_row_heap(entries, steps, exclusivity,
                                         observed, upgrades):
    runs = Rig(TransferEngine, entries, exclusivity, observed, upgrades)
    rows = Rig(RowHeapTransferEngine, entries, exclusivity, observed,
               upgrades)
    for step in steps:
        runs.call(step)
        rows.call(step)
        assert runs.seen() == rows.seen()
        assert runs.snapshot() == in_pop_order(rows.snapshot())


def test_a_split_run_keeps_its_place_and_its_timing():
    """A run stopped mid-way keeps (priority, sequence) order, row by row.

    Four rows queue as one run; an advance to cycle 1 issues two of them.
    A higher-priority read queued then issues before the other two, and
    each row completes at its own cycle, so an advance to the first
    completion delivers one row, not the two in flight.
    """
    rig = Rig(TransferEngine,
              [(BLOCKS[0] + 4, 1), (BLOCKS[0] + 0x64, 2), (BLOCKS[1] + 8, 3)],
              ExclusivityMode.SEMI_EXCLUSIVE, True, ())
    engine = rig.engine
    first, second = rig.trackers[0], rig.trackers[1]
    engine.enqueue_sector(first, BLOCKS[0], 0, 1, rows=4)
    engine.advance(1)
    assert (engine.pending_rows, engine.inflight_rows) == (2, 2)
    engine.enqueue_sector(second, BLOCKS[1], 0, 0, rows=1)
    engine.advance(SEARCH_PIPELINE_CYCLES)
    assert (engine.pending_rows, engine.inflight_rows) == (0, 4)
    engine.advance(SEARCH_PIPELINE_CYCLES + 4)
    pipeline = SEARCH_PIPELINE_CYCLES
    assert [event for event in rig.log if event[0] in ("row", "drained")] == [
        ("row", pipeline, BLOCKS[0], 1),
        ("row", pipeline + 1, BLOCKS[0] + ROW_BYTES, 0),
        ("row", pipeline + 2, BLOCKS[1], 1),
        ("drained", 1, pipeline + 2),
        ("row", pipeline + 3, BLOCKS[0] + 2 * ROW_BYTES, 0),
        ("row", pipeline + 4, BLOCKS[0] + 3 * ROW_BYTES, 1),
        ("drained", 0, pipeline + 4),
    ]
    assert (engine.pending_rows, engine.inflight_rows) == (0, 0)
