"""BTB2 bulk transfer engine (sections 3.6-3.7 timing).

"Upon a BTB1 miss, the fastest the BTB2 search can be started is in the b10
cycle.  This is 7 cycles after the miss is detected in the b3 cycle of the
search process.  The BTB2 search itself takes 8 cycles.  Accesses are
pipelined such that one BTB2 row is searched each cycle once searching is
underway.  Therefore, a full 4 KB bulk transfer takes 128 + 8 = 136 cycles."

The engine owns a priority queue of pending row reads (priority bands
implement the cross-block steering arbitration of 3.7), issues at most one
row per cycle, completes each read ``SEARCH_PIPELINE_CYCLES`` later, and on
completion moves every tag-matching BTB2 entry into the BTBP.

Reads are held as *row runs*, the way the hardware streams them: one entry
per run of consecutive rows that one :meth:`TransferEngine.enqueue_sector`
call queued.  The rows of a run share their priority, eligible cycle and
tracker and hold consecutive sequence numbers, so they are adjacent in the
(priority, sequence) issue order and issue on consecutive cycles; a run is
split only where an :meth:`~TransferEngine.advance` stops in its middle.
Issue order is completion order (one issue per cycle, a fixed pipeline
depth), so the in-flight runs are a FIFO.  Each row still completes, and
delivers its hits, at its own cycle; a row whose BTB2 set is empty costs
one index and one truth test.

Time is advanced lazily: the simulator advances the engine to its current
clock before any structure probe, so transferred entries become visible
exactly at their completion cycles.  While nothing is queued or in flight
an advance only moves the clock, and ``Simulator.step`` skips the call
(``PreloadEngine.idle``).
"""

from __future__ import annotations

import heapq
from collections import deque
from operator import attrgetter
from typing import Callable

from repro.btb.btb2 import BTB2
from repro.btb.entry import BTBEntry, check_indices, check_keys
from repro.core.config import ExclusivityMode
from repro.isa.address import ROW_BYTES
from repro.preload.tracker import SearchTracker

#: Delay from miss detection (b3) to the first BTB2 row read (b10).
MISS_TO_SEARCH_START = 7
#: Pipeline depth of one BTB2 row search.
SEARCH_PIPELINE_CYCLES = 8
#: Full 4 KB bulk transfer: 128 rows + pipeline depth.
FULL_BLOCK_TRANSFER_CYCLES = 128 + SEARCH_PIPELINE_CYCLES

_ROW_MASK = ~(ROW_BYTES - 1)
_address = attrgetter("address")


class TransferEngine:
    """One-row-per-cycle pipelined BTB2 reader with priority arbitration."""

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
        # Queued runs: (priority, sequence, row_address, rows,
        # eligible_cycle, tracker); row k of a run has sequence
        # ``sequence + k`` and address ``row_address + k * ROW_BYTES``.
        # Sequences are unique, so heap comparisons never reach the tracker
        # and pop order is the rows' (priority, sequence) order.
        self._queue: list[tuple[int, int, int, int, int, SearchTracker]] = []
        self._sequence = 0
        # In-flight runs, oldest first: (completion_cycle, sequence,
        # row_address, rows, tracker); row k completes at
        # ``completion_cycle + k``.
        self._inflight: deque[tuple[int, int, int, int, SearchTracker]] = (
            deque())
        self._next_issue_cycle = 0
        self.clock = 0
        self.rows_read = 0
        self.entries_transferred = 0
        #: Rows queued but not yet issued.
        self.pending_rows = 0
        #: Rows issued but not yet completed.
        self.inflight_rows = 0
        #: Optional :class:`repro.telemetry.Telemetry`; ``None`` = no tracing.
        self.telemetry = None
        #: Optional lockstep observer (:mod:`repro.oracle.differential`);
        #: ``None`` = no observation.
        self.probe = None

    # -- enqueue -------------------------------------------------------------

    def enqueue_sector(
        self,
        tracker: SearchTracker,
        sector_address: int,
        eligible_cycle: int,
        priority: int,
        rows: int = 4,
    ) -> int:
        """Queue ``rows`` sequential row reads starting at ``sector_address``.

        Rows already enqueued for this tracker activation are skipped (the
        partial-search rows are not re-read on upgrade to a full search).
        The rows left are queued as one run per stretch of consecutive
        rows.  Returns the number of rows actually queued.
        """
        enqueued_rows = tracker.enqueued_rows
        queue = self._queue
        sequence = self._sequence
        first = run = 0  # the stretch being collected: first row, length
        for row_address in range(sector_address,
                                 sector_address + rows * ROW_BYTES,
                                 ROW_BYTES):
            if row_address in enqueued_rows:
                if run:
                    heapq.heappush(queue, (priority, sequence - run + 1,
                                           first, run, eligible_cycle,
                                           tracker))
                    run = 0
                continue
            enqueued_rows.add(row_address)
            sequence += 1
            if not run:
                first = row_address
            run += 1
        if run:
            heapq.heappush(queue, (priority, sequence - run + 1, first, run,
                                   eligible_cycle, tracker))
        queued = sequence - self._sequence
        self._sequence = sequence
        tracker.outstanding_rows += queued
        self.pending_rows += queued
        return queued

    # -- time ----------------------------------------------------------------

    def advance(self, cycle: int) -> None:
        """Issue and complete row reads up to ``cycle`` (monotonic).

        Every row that can issue by then issues first; then every row
        that completes by then delivers.
        """
        if cycle > self.clock:
            self.clock = cycle
        else:
            cycle = self.clock
        if self._queue:
            self._issue_until(cycle)
        inflight = self._inflight
        if inflight and inflight[0][0] <= cycle:
            self._complete_until(cycle)

    def _issue_until(self, cycle: int) -> None:
        """Issue queued rows, one per cycle, whose issue cycle is ``<= cycle``.

        The head run issues as many rows as fit; a run cut short keeps its
        place at the head, because its rows still come first.
        """
        queue = self._queue
        next_issue = self._next_issue_cycle
        issued_total = 0
        while queue:
            priority, sequence, row_address, rows, eligible, tracker = queue[0]
            issue = next_issue if next_issue > eligible else eligible
            if issue > cycle:
                break
            issued = cycle - issue + 1
            if issued < rows:
                queue[0] = (priority, sequence + issued,
                            row_address + issued * ROW_BYTES, rows - issued,
                            eligible, tracker)
            else:
                issued = rows
                heapq.heappop(queue)
            self._inflight.append((issue + SEARCH_PIPELINE_CYCLES, sequence,
                                   row_address, issued, tracker))
            next_issue = issue + issued
            issued_total += issued
        if issued_total:
            self._next_issue_cycle = next_issue
            self.rows_read += issued_total
            self.pending_rows -= issued_total
            self.inflight_rows += issued_total

    def _complete_until(self, cycle: int) -> None:
        """Deliver every in-flight row whose completion cycle is ``<= cycle``.

        The head run delivers its rows in order, row ``k`` at its own
        completion cycle; only a row whose BTB2 set holds entries, or any
        row while an observer is attached, reaches :meth:`_deliver_row`.
        The tracker's drained callback fires after the run's last row, at
        that row's completion cycle: every row of a run is the tracker's,
        so its outstanding count cannot reach zero earlier.
        """
        inflight = self._inflight
        table = self.btb2._rows
        mask = self.btb2.rows - 1
        observed = self.telemetry is not None or self.probe is not None
        while inflight:
            completion, sequence, row_address, rows, tracker = inflight[0]
            if completion > cycle:
                return
            done = cycle - completion + 1
            if done < rows:
                inflight[0] = (completion + done, sequence + done,
                               row_address + done * ROW_BYTES, rows - done,
                               tracker)
            else:
                done = rows
                inflight.popleft()
            self.inflight_rows -= done
            index = row_address >> 5
            hits = 0
            for step in range(done):
                ways = table[(index + step) & mask]
                if ways or observed:
                    hits += self._deliver_row(row_address + step * ROW_BYTES,
                                              ways, completion + step)
            tracker.transferred_entries += hits
            tracker.outstanding_rows -= done
            if (
                tracker.outstanding_rows == 0
                and self.on_tracker_drained is not None
            ):
                self.on_tracker_drained(tracker, completion + done - 1)

    def _deliver_row(self, row_address: int, ways: list[BTBEntry],
                     completion: int) -> int:
        """Read one BTB2 row and install every hit into the first level.

        ``ways`` is the row's BTB2 set.  Hits are the entries tag-matched
        to the row, in ascending branch-address order
        (:meth:`~repro.btb.storage.BranchTargetBuffer.search_row`).
        Returns the number of entries installed.
        """
        row_start = row_address & _ROW_MASK
        hits = []
        for entry in ways:
            if entry.address & _ROW_MASK == row_start:
                hits.append(entry)
        if len(hits) > 1:
            hits.sort(key=_address)
        btb2 = self.btb2
        keep = (btb2.touch if self.exclusivity is ExclusivityMode.INCLUSIVE
                else btb2.demote)
        install = self.install
        for entry in hits:
            keep(entry)
            install(entry.clone())
        btb2.transfer_hits += len(hits)
        self.entries_transferred += len(hits)
        if self.probe is not None:
            self.probe.on_row_delivered(
                row_address, [entry.address for entry in hits]
            )
        if self.telemetry is not None:
            self.telemetry.on_btb2_row(completion, row_address, len(hits))
        return len(hits)

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self, slot_of: Callable[[SearchTracker], int]) -> dict:
        """Snapshot queue/in-flight state with trackers encoded by slot.

        Queued and in-flight reads hold live tracker references; ``slot_of``
        maps them to their stable :class:`~repro.preload.tracker.TrackerFile`
        slot indices so the snapshot is pure data.  Every row is written on
        its own, ``queue`` as ``[priority, sequence, row_address,
        eligible_cycle, slot]`` and ``inflight`` as ``[completion_cycle,
        sequence, row_address, slot]``, each in the order the rows issue or
        complete; :meth:`load_state_dict` accepts them in any order.
        """
        return {
            "queue": [
                [priority, sequence + step, row_address + step * ROW_BYTES,
                 eligible_cycle, slot_of(tracker)]
                for priority, sequence, row_address, rows, eligible_cycle,
                tracker in sorted(self._queue)
                for step in range(rows)
            ],
            "inflight": [
                [completion + step, sequence + step,
                 row_address + step * ROW_BYTES, slot_of(tracker)]
                for completion, sequence, row_address, rows, tracker
                in self._inflight
                for step in range(rows)
            ],
            "sequence": self._sequence,
            "next_issue_cycle": self._next_issue_cycle,
            "clock": self.clock,
            "rows_read": self.rows_read,
            "entries_transferred": self.entries_transferred,
        }

    def check_state(self, state: dict, trackers: int) -> None:
        """Raise ``ValueError`` unless the snapshot would restore as stored.

        It must hold every key :meth:`state_dict` writes, and each queued
        and in-flight row must name a tracker slot in ``[0, trackers)``.
        """
        check_keys("transfer", state, (
            "queue", "inflight", "sequence", "next_issue_cycle", "clock",
            "rows_read", "entries_transferred"))
        check_indices("transfer queue", [row[-1] for row in state["queue"]],
                      trackers)
        check_indices("transfer inflight",
                      [row[-1] for row in state["inflight"]], trackers)

    def load_state_dict(
        self, state: dict, tracker_at: Callable[[int], SearchTracker]
    ) -> None:
        """Restore a snapshot taken by :meth:`state_dict`.

        ``tracker_at`` resolves slot indices back to live tracker objects.
        The rows may come in any order.  Each restores as a run of one row,
        which issues and completes exactly as the row would inside a
        longer run.
        """
        self._queue = [
            (priority, sequence, row_address, 1, eligible_cycle,
             tracker_at(slot))
            for priority, sequence, row_address, eligible_cycle, slot
            in state["queue"]
        ]
        heapq.heapify(self._queue)
        self._inflight = deque(
            (completion, sequence, row_address, 1, tracker_at(slot))
            for completion, sequence, row_address, slot
            in sorted(state["inflight"])
        )
        self.pending_rows = len(state["queue"])
        self.inflight_rows = len(state["inflight"])
        self._sequence = state["sequence"]
        self._next_issue_cycle = state["next_issue_cycle"]
        self.clock = state["clock"]
        self.rows_read = state["rows_read"]
        self.entries_transferred = state["entries_transferred"]

    # -- introspection ---------------------------------------------------------

    def drain(self) -> None:
        """Run the clock forward until no reads are queued or in flight.

        End-of-simulation cleanup: advances in full-block-transfer steps,
        so every pending read issues, completes, and installs its hits,
        and every tracker sees its drained callback.
        """
        horizon = self.clock
        while self._queue or self._inflight:
            horizon += FULL_BLOCK_TRANSFER_CYCLES
            self.advance(horizon)
