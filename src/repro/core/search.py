"""Asynchronous lookahead branch prediction search pipeline.

Implements section 3.2's search process and its variable throughput, plus
the BTB1 miss detection of section 3.4 (Table 2).

The search logic walks 32-byte rows asynchronously from instruction fetch.
Upon a restart both start at the same address; the searcher then either
re-indexes to the target of each predicted-taken branch, continues
sequentially past predicted-not-taken branches, or — finding nothing —
walks sequential rows at an average 16 bytes per cycle.

Timing rules reproduced from the paper (3.2):

* one prediction per cycle for a single-taken-branch loop;
* one prediction every 2 cycles under FIT control;
* one taken prediction every 3 cycles from the MRU BTB1 column;
* otherwise one taken prediction every 4 cycles;
* not-taken predictions: 2 per 5 cycles when two come from one row,
  otherwise one every 4 cycles;
* sequential search with no predictions: 16 bytes/cycle average
  (3 cycles x 32 B then 3 dead re-index cycles) => 2 cycles per empty row;
* a prediction is broadcast (usable by decode) 4 cycles after its search's
  b0 (Table 1, b4 broadcast stage);
* a BTB1 miss is detected at the b3 cycle of the ``miss_limit``-th
  consecutive empty search and reported at the *starting* search address
  (Table 2).

The driver (:class:`repro.engine.simulator.Simulator`) advances the searcher
branch-to-branch along the executed path; see DESIGN.md §7 for the wrong-path
simplification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.btb.entry import check_keys
from repro.core.events import MissReport, Prediction, PredictionLevel
from repro.core.hierarchy import FirstLevelPredictor, RowHit
from repro.isa.address import ADDRESS_MASK, ROW_BYTES, next_row, row_address

#: b0 -> b4 broadcast latency of the 7-stage pipeline (Table 1).
BROADCAST_LATENCY = 4
#: b0 -> b3 miss-detection latency (Table 2).
MISS_DETECT_LATENCY = 3
#: Cycles per empty sequential 32-byte search (16 B/cycle average).
SEQUENTIAL_CYCLES_PER_ROW = 2

#: ``address & _ROW_MASK`` is :func:`~repro.isa.address.row_address`, inline.
_ROW_MASK = ~(ROW_BYTES - 1) & ADDRESS_MASK

#: Per-prediction re-index costs (cycles until the next search's b0).
COST_SINGLE_BRANCH_LOOP = 1
COST_FIT = 2
COST_TAKEN_MRU = 3
COST_TAKEN_NON_MRU = 4
COST_NOT_TAKEN_SECOND_IN_ROW = 1  # second of "2 every 5 cycles"
COST_NOT_TAKEN = 4


@dataclass(slots=True)
class SearchOutcome:
    """Result of advancing the searcher to one dynamic branch."""

    #: Prediction found for the branch, or ``None`` (surprise at decode).
    prediction: Prediction | None
    #: Perceived BTB1 misses emitted while covering the gap, in order.
    miss_reports: list[MissReport]


class LookaheadSearch:
    """Search-pipeline state machine with Table 1/2 timing."""

    def __init__(
        self,
        hierarchy: FirstLevelPredictor,
        miss_limit: int = 4,
        on_miss: Callable[[MissReport], None] | None = None,
    ) -> None:
        self.hierarchy = hierarchy
        self.miss_limit = miss_limit
        self.on_miss = on_miss
        self.cycle = 0
        self.search_address = 0
        self._consecutive_empty = 0
        self._first_empty_address = 0
        self._last_taken_address: int | None = None
        self._last_not_taken_row: int | None = None
        self.searches = 0
        self.empty_searches = 0
        self.predictions_made = 0
        self.miss_reports_made = 0
        #: Optional :class:`repro.audit.Auditor`; ``None`` = no checking.
        self.audit = None
        #: Optional :class:`repro.telemetry.Telemetry`; ``None`` = no tracing.
        self.telemetry = None
        #: Optional lockstep observer (:mod:`repro.oracle.differential`);
        #: ``None`` = no observation.
        self.probe = None

    # -- control ------------------------------------------------------------

    def restart(self, address: int, cycle: int) -> None:
        """Reset the searcher after a pipeline restart (3.2).

        The only event allowed to move the search clock backward: the
        searcher may have run ahead of the restart point.
        """
        self.search_address = address
        self.cycle = cycle
        self._consecutive_empty = 0
        self._first_empty_address = address
        self._last_taken_address = None
        self._last_not_taken_row = None
        if self.audit is not None:
            self.audit.on_search_restart(self, address, cycle)
        if self.probe is not None:
            self.probe.on_search_restart(address, cycle)

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of the searcher's position, pattern state and counters."""
        return {
            "cycle": self.cycle,
            "search_address": self.search_address,
            "consecutive_empty": self._consecutive_empty,
            "first_empty_address": self._first_empty_address,
            "last_taken_address": self._last_taken_address,
            "last_not_taken_row": self._last_not_taken_row,
            "searches": self.searches,
            "empty_searches": self.empty_searches,
            "predictions_made": self.predictions_made,
            "miss_reports_made": self.miss_reports_made,
        }

    def check_state(self, state: dict) -> None:
        """Raise ``ValueError`` unless the snapshot holds every key."""
        check_keys("search", state, (
            "cycle", "search_address", "consecutive_empty",
            "first_empty_address", "last_taken_address", "last_not_taken_row",
            "searches", "empty_searches", "predictions_made",
            "miss_reports_made"))

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`."""
        self.cycle = state["cycle"]
        self.search_address = state["search_address"]
        self._consecutive_empty = state["consecutive_empty"]
        self._first_empty_address = state["first_empty_address"]
        self._last_taken_address = state["last_taken_address"]
        self._last_not_taken_row = state["last_not_taken_row"]
        self.searches = state["searches"]
        self.empty_searches = state["empty_searches"]
        self.predictions_made = state["predictions_made"]
        self.miss_reports_made = state["miss_reports_made"]

    # -- main advance --------------------------------------------------------

    def advance_to_branch(self, branch_address: int) -> SearchOutcome:
        """Search from the current position up to ``branch_address``.

        Covers the sequential gap row by row (emitting perceived-miss
        reports), then searches the branch's own row.  Returns the prediction
        found for exactly ``branch_address`` — or ``None`` when the first
        level does not hold it (the branch will be a surprise at decode; the
        caller restarts the searcher if the surprise redirects the pipeline).

        Three no-prediction shapes are distinguished:

        * the searcher already walked past the branch's row on this path
          segment without predicting (dense not-taken surprise code): no new
          search happens — the row was covered and found empty once;
        * the row probe finds nothing at/after the search point: one more
          empty search is counted and the searcher moves to the next row,
          just as the hardware pipeline would continue sequentially;
        * the row probe finds only a *later* branch: the searcher holds its
          position (that prediction is still pending from its perspective)
          and the demanded branch is simply a surprise.
        """
        reports: list[MissReport] = []
        row = self.search_address & _ROW_MASK
        gap = (branch_address & _ROW_MASK) - row
        if gap < 0:
            return SearchOutcome(None, reports)
        if gap:
            self._walk_gap(row, gap // ROW_BYTES, reports)
        hit = self.hierarchy.first_hit_in_row(self.search_address)
        if hit is None:
            self.searches += 1
            self.empty_searches += 1
            self._note_empty_search(reports)
            self.cycle += SEQUENTIAL_CYCLES_PER_ROW
            self.search_address = next_row(self.search_address)
            prediction = None
        elif hit.entry.address != branch_address:
            prediction = None
        else:
            prediction = self._predict(hit)
        if reports:
            self._flush(reports)
        return SearchOutcome(prediction, reports)

    def run_ahead(self, until_cycle: int) -> list[MissReport]:
        """Free-run sequential searches until ``until_cycle``.

        The hardware searcher keeps searching ahead of decode until a
        restart arrives; in cold code this is what detects BTB1 misses *and
        starts the BTB2 transfer* before the surprise branch even resolves.
        The simulator calls this when it knows a restart is coming (a bad
        surprise) to let the searcher cover the rows — and report the
        perceived misses — it would have covered in that window.

        Run-ahead stops early at the first row holding any first-level
        entry: past that point the hardware would follow a speculative
        prediction down a path this trace-driven model cannot replay
        (DESIGN.md §7).
        """
        reports: list[MissReport] = []
        while self.cycle + SEQUENTIAL_CYCLES_PER_ROW <= until_cycle:
            if self.hierarchy.first_hit_in_row(self.search_address) is not None:
                break
            self.searches += 1
            self.empty_searches += 1
            self._note_empty_search(reports)
            self.cycle += SEQUENTIAL_CYCLES_PER_ROW
            self.search_address = next_row(self.search_address)
        return self._flush(reports)

    def _walk_gap(self, row: int, rows: int,
                  reports: list[MissReport]) -> None:
        """Sequentially search the ``rows`` (branch-free) rows from ``row``.

        ``row`` is the start of the searcher's row and the branch's row
        lies ``rows`` rows after it.  Each row is one empty search, counted
        and reported exactly as :meth:`_note_empty_search` would at that
        row's b0 cycle, in one frame for the whole gap.  The first search
        is at the search address itself, every later one at a row start;
        the searcher ends at the start of the branch's row.
        """
        if rows > 1 << 20:  # pragma: no cover - defensive
            raise RuntimeError("runaway sequential search")
        address = self.search_address
        cycle = self.cycle
        empty = self._consecutive_empty
        first = self._first_empty_address
        limit = self.miss_limit
        for _ in range(rows):
            if not empty:
                first = address
            empty += 1
            if empty >= limit:
                reports.append(MissReport(first, cycle + MISS_DETECT_LATENCY))
                self.miss_reports_made += 1
                empty = 0
            cycle += SEQUENTIAL_CYCLES_PER_ROW
            row += ROW_BYTES
            address = row
        self.searches += rows
        self.empty_searches += rows
        self.cycle = cycle
        self.search_address = address
        self._consecutive_empty = empty
        self._first_empty_address = first

    def _note_empty_search(self, reports: list[MissReport]) -> None:
        """Count one empty search; emit a miss report at the limit.

        Timing note (Table 2): callers invoke this *before* charging the
        row's ``SEQUENTIAL_CYCLES_PER_ROW``, which is deliberate — at that
        point ``self.cycle`` is the b0 cycle of the empty search just
        performed, so the report lands on its b3 cycle
        (``cycle + MISS_DETECT_LATENCY``).  The 2 sequential cycles per row
        are b0-to-b0 *throughput*, not part of the in-pipeline detection
        latency; charging them first would stamp reports 2 cycles late.
        ``tests/core/test_search_timing.py`` pins this against Table 2.
        """
        if self._consecutive_empty == 0:
            self._first_empty_address = self.search_address
        self._consecutive_empty += 1
        if self._consecutive_empty >= self.miss_limit:
            reports.append(MissReport(self._first_empty_address,
                                      self.cycle + MISS_DETECT_LATENCY))
            self.miss_reports_made += 1
            self._consecutive_empty = 0

    def _predict(self, hit: RowHit) -> Prediction:
        """Emit a prediction for ``hit`` and re-index the searcher."""
        self.searches += 1
        self._consecutive_empty = 0
        entry = hit.entry
        address = entry.address
        taken, target, used_pht, used_ctb = (
            self.hierarchy.resolve_content(entry))
        cost = self._prediction_cost(hit, taken)
        # Positional, in field order: passing keywords would double the
        # cost of building one on this per-branch path.
        prediction = Prediction(
            address, taken, target, hit.level, self.cycle + BROADCAST_LATENCY,
            entry, hit.from_mru, used_pht, used_ctb,
        )
        self.predictions_made += 1
        if self.telemetry is not None:
            self.telemetry.on_prediction(self.cycle, prediction)
        if self.probe is not None:
            # Fired while ``search_address`` is still the probed address and
            # before the FIT trains, so an observer can replay the row probe
            # and the prediction's side effects from identical pre-state.
            self.probe.on_predict(self.search_address, prediction)
        self.cycle += cost
        if taken and target is not None:
            self._last_taken_address = address
            self._last_not_taken_row = None
            self.hierarchy.fit.train(
                address, self.hierarchy.btb1.row_index(target)
            )
            self.search_address = target
        else:
            self._last_taken_address = None
            self._last_not_taken_row = row_address(address)
            self.search_address = address + 2
        return prediction

    def _prediction_cost(self, hit: RowHit, taken: bool) -> int:
        """Re-index cost in cycles for this prediction (3.2 throughput rules)."""
        address = hit.entry.address
        if taken:
            if self._last_taken_address == address:
                return COST_SINGLE_BRANCH_LOOP
            if self.hierarchy.fit.probe(address):
                return COST_FIT
            if hit.from_mru and hit.level is PredictionLevel.BTB1:
                return COST_TAKEN_MRU
            return COST_TAKEN_NON_MRU
        if self._last_not_taken_row == row_address(address):
            return COST_NOT_TAKEN_SECOND_IN_ROW
        return COST_NOT_TAKEN

    def _flush(self, reports: list[MissReport]) -> list[MissReport]:
        if self.telemetry is not None:
            for report in reports:
                self.telemetry.on_miss_report(report)
        if self.on_miss is not None:
            for report in reports:
                self.on_miss(report)
        return reports
