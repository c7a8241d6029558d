"""Batched struct-of-arrays engine core with a slow-path escape.

The object engine (:class:`repro.engine.simulator.Simulator`) walks the
trace one :class:`~repro.trace.record.TraceRecord` at a time through a deep
call tree — ``step`` → ``_fetch``/``_branch`` → ``advance_to_branch`` →
``_predict`` — allocating a ``SearchOutcome``/``Prediction``/``RowHit`` per
dynamic branch.  That is the right shape for auditing and lockstep
observation, but it pays the full method-dispatch and allocation cost for
every record, including the overwhelmingly common quiet ones (sequential
non-branch instructions that stay inside the current i-cache line).

This module is a *bit-identical* batched reformulation of the same model:

* The trace is consumed in fixed-size chunks.  Each chunk is decomposed
  into struct-of-arrays columns (address, fall-through/target next-address,
  is-branch), and a prescan marks *event* records — branches, control-flow
  discontinuities, i-cache line crossings, and (when steering is enabled)
  128-byte sector crossings.  The prescan uses numpy when importable and a
  pure-stdlib ``bytearray`` bitmap otherwise; both backends produce the
  same event index list.
* Records between events are, by construction, sequential non-branch
  instructions inside the current line and sector.  In the object engine
  their entire effect is ``instructions += 1`` and ``cycle +=
  base_decode_cycles``; the fast path applies exactly that (as iterated
  float adds — ``base_decode_cycles`` is not a dyadic rational, so a single
  fused multiply would change the accumulated float).
* Event records are handled by an allocation-free inline replica of the
  object engine's ``step``: the fetch model, the lookahead search walk, the
  row probe (with the object engine's exact tag-match and BTB1-beats-BTBP
  tie-break), the Table-1 prediction timing, the move protocol and
  training.  Every structure mutation happens in the same order, on the
  same shared objects, with the same float arithmetic.
* Anything rare **escapes to the slow path before mutating any state**:
  surprise branches (including late predictions), perceived-BTB1-miss
  reports, malformed records, and discontinuities landing on a branch.
  The escaped record is replayed by the ordinary ``Simulator.step``,
  which is trivially correct — the fast path guaranteed it had not
  touched anything yet.
* While the bulk-preload transfer engine is *busy* (queued or in-flight
  rows, or armed block-waiters) the object engine's once-per-record
  ``preload.advance`` does real work — issuing searches, completing
  transfers, delivering rows, expiring waits — so the fast path replays
  it per record at the object engine's exact clock (the post-decode-add
  integer cycle) until the machinery drains.

Because the batched core *shares* the object engine's structures rather
than mirroring them, there is no state to resynchronize on escape; the one
deliberate divergence is that per-record ``preload.advance`` calls are
elided while the transfer engine is idle (they reduce to a monotonic clock
max) and replayed as a single equivalent advance at every escape boundary,
chunk end, and run end.  ``TransferEngine.advance`` is prefix-decomposable
— issue stamps depend on eligibility, not on the clock argument — and
idempotent for an equal clock, so the boundary sync is exact.

Equivalence is enforced three ways: escape-boundary ``state_dict()``
parity tests (``tests/engine/test_batched.py``), the golden 13-workload
gate behind ``repro verify --engine auto``, and the metamorphic
golden-baseline check.  The core serves detailed simulation only:
functional warming is faster on the object engine's hoisted
``Simulator.warm_run``.  :meth:`Simulator.feed
<repro.engine.simulator.Simulator.feed>` is the one place that picks
this core.  See docs/PERFORMANCE.md for the fast/slow path contract and
measured throughput.
"""

from __future__ import annotations

import math
from itertools import islice, repeat
from typing import TYPE_CHECKING, Callable, Iterable

from repro.core.events import OutcomeKind, PredictionLevel
from repro.core.hierarchy import RowHit
from repro.core.search import BROADCAST_LATENCY, SEQUENTIAL_CYCLES_PER_ROW
from repro.preload.ordering import SECTOR_SHIFT
from repro.trace.record import TraceRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.simulator import Simulator

try:  # pragma: no cover - environment-dependent
    import numpy as _np
except ImportError:  # pragma: no cover - numpy genuinely absent
    _np = None

#: The engine modes ``Simulator`` accepts.  ``object`` is the original
#: per-record engine; ``auto`` runs detailed records through this module's
#: chunked core exactly when no observer (audit, telemetry, differential
#: probe) is attached, since observers need per-record hooks.
ENGINE_MODES = ("object", "auto")

#: Records per struct-of-arrays chunk.  Large enough to amortize the
#: prescan, small enough that a chunk's columns stay cache-resident.
CHUNK_RECORDS = 8192


def validate_engine_mode(mode: str) -> str:
    """Return ``mode`` if it is a known engine mode, else raise ValueError."""
    if mode not in ENGINE_MODES:
        raise ValueError(
            f"unknown engine_mode {mode!r}; expected one of {ENGINE_MODES}"
        )
    return mode


def _event_indices(addrs: list, nxts: list, isbr: list, shift: int) -> list:
    """Indices of event records within one chunk's columns.

    A record is an event when it is a branch, when control did not arrive
    from the previous record's next-address (a discontinuity), or when its
    address leaves the previous record's ``1 << shift``-byte granule (line
    or sector, whichever is finer for the active config).  Index 0 is
    always an event: its checks run against carried simulator state.
    """
    if _np is not None:
        a = _np.array(addrs, dtype=_np.int64)
        x = _np.array(nxts, dtype=_np.int64)
        flags = _np.array(isbr, dtype=_np.bool_)
        flags[1:] |= a[1:] != x[:-1]
        flags[1:] |= ((a[1:] ^ a[:-1]) >> shift) != 0
        flags[0] = True
        return _np.nonzero(flags)[0].tolist()
    n = len(addrs)
    flags = bytearray(n)
    flags[0] = 1
    prev_a = addrs[0]
    prev_x = nxts[0]
    for k in range(1, n):
        ak = addrs[k]
        if isbr[k] or ak != prev_x or (ak ^ prev_a) >> shift:
            flags[k] = 1
        prev_a = ak
        prev_x = nxts[k]
    return [k for k in range(n) if flags[k]]


def _columns(chunk: list) -> tuple[list, list, list]:
    """Struct-of-arrays columns of one chunk: address, next, is-branch.

    A taken branch without a target (malformed; ``TraceRecord.validate``
    rejects it) gets the poison next-address ``-1`` so the following
    record always reads as a discontinuity; the branch itself escapes to
    the slow path, which raises exactly as the object engine would.
    """
    addrs = [r.address for r in chunk]
    nxts = [
        (r.target if r.target is not None else -1) if r.taken
        else r.address + r.length
        for r in chunk
    ]
    isbr = [r.kind is not None for r in chunk]
    return addrs, nxts, isbr


class BatchedSimulator:
    """Chunked fast-path driver wrapped around one object ``Simulator``.

    The wrapper owns no architectural state: every table, counter and clock
    lives in the wrapped simulator, which is why an escape can simply call
    ``sim.step`` on the offending record.  Instances are cheap; one is
    created per :meth:`Simulator.feed
    <repro.engine.simulator.Simulator.feed>` call.
    """

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        #: Total records consumed so far (so escape indices are absolute).
        self._consumed = 0
        #: Escape counts by reason, for tests and benchmark reporting.
        self.escape_counts: dict[str, int] = {}
        #: Optional test hook ``(absolute_record_index, reason)`` fired
        #: *after* local state write-back and the boundary preload sync,
        #: immediately before the escaped record is slow-stepped — the
        #: wrapped simulator's ``state_dict()`` is fully consistent here.
        self.escape_hook: Callable[[int, str], None] | None = None

    # -- public API ---------------------------------------------------------

    def feed(self, records: Iterable[TraceRecord]) -> None:
        """Consume ``records`` through the fast path without finishing.

        Fires no observer hooks: :meth:`Simulator.feed
        <repro.engine.simulator.Simulator.feed>` only calls it when none is
        attached.  Tests call it directly to interleave chunked consumption
        with ``state_dict()`` snapshots.
        """
        it = iter(records)
        while True:
            chunk = list(islice(it, CHUNK_RECORDS))
            if not chunk:
                break
            self._consume(chunk)

    # -- chunk driver -------------------------------------------------------

    def _escape(self, index: int, reason: str) -> None:
        """Record an escape (stats + optional hook) at absolute ``index``."""
        counts = self.escape_counts
        counts[reason] = counts.get(reason, 0) + 1
        hook = self.escape_hook
        if hook is not None:
            hook(self._consumed + index, reason)

    def _preload_busy(self) -> bool:
        """Whether transfer machinery is active (fast path must not run)."""
        preload = self._sim.preload
        if preload is None:
            return False
        transfer = preload.transfer
        return bool(
            transfer._queue or transfer._inflight or preload._block_waiters
        )

    def _consume(self, chunk: list) -> None:
        """Process one chunk: fast spans separated by slow-path records."""
        sim = self._sim
        step = sim.step
        n = len(chunk)
        pos = 0
        if not sim._started:
            # The first record of the run initializes the searcher.
            self._escape(0, "start")
            step(chunk[0])
            pos = 1
        if pos < n:
            addrs, nxts, isbr = _columns(chunk)
            line_shift = sim.timing.icache_line_bytes.bit_length() - 1
            shift = (
                min(line_shift, SECTOR_SHIFT)
                if sim.config.steering_enabled and sim.preload is not None
                else line_shift
            )
            events = _event_indices(addrs, nxts, isbr, shift)
            ne = len(events)
            ei = 0
            while ei < ne and events[ei] < pos:
                ei += 1
            while pos < n:
                pos, ei, reason = self._fast(chunk, addrs, nxts, events,
                                             pos, ei)
                if reason is not None:
                    # The record at ``pos`` was *not* touched by the fast
                    # path; replay it in full on the slow path.
                    self._escape(pos, reason)
                    step(chunk[pos])
                    pos += 1
                    while ei < ne and events[ei] < pos:
                        ei += 1
                # reason None: chunk exhausted.
        self._consumed += n

    # -- the fast path ------------------------------------------------------

    def _fast(self, chunk, addrs, nxts, events, pos, ei):
        """Run records from ``pos`` until an escape or the chunk's end.

        Returns ``(new_pos, new_ei, reason)``.  ``reason`` is ``None`` when
        the chunk is exhausted (every record below ``new_pos`` is fully
        processed); otherwise it names the escape and the record at
        ``new_pos`` is untouched.

        The body is one flat frame with every hot attribute hoisted into
        locals — the batched analogue of ``Simulator.warm_run`` — and is
        kept in lockstep with ``Simulator.step``/``_fetch``/``_branch``/
        ``LookaheadSearch.advance_to_branch`` by the parity suite.  When
        editing either side, update the other.
        """
        sim = self._sim
        timing = sim.timing
        base = sim._base_decode_cycles
        extra_taken = sim._extra_taken_cycles
        l2 = timing.l2_instruction_latency
        refill = timing.frontend_refill_cycles
        mispredict_penalty = timing.mispredict_penalty
        line_mask = sim._line_mask
        counters = sim.counters
        outcomes = counters.outcomes
        penalties = counters.penalty_cycles
        hierarchy = sim.hierarchy
        btb1 = hierarchy.btb1
        btb1_rows = btb1._rows
        btb1_nrows = btb1.rows
        btb1_touch = btb1.touch
        btbp = hierarchy.btbp
        btbp_rows = btbp._rows if btbp is not None else None
        btbp_nrows = btbp.rows if btbp is not None else 1
        resolve_content = hierarchy.resolve_content
        use_prediction = hierarchy.use_prediction
        train = hierarchy.train
        fit_probe = hierarchy.fit.probe
        fit_train = hierarchy.fit.train
        bht_update = hierarchy.surprise_bht.update
        history_record = hierarchy.history.record
        seen_add = sim._seen_branches.add
        search = sim.search
        miss_limit = search.miss_limit
        icache = sim.icache
        ic_fetch = icache.fetch
        ic_contains = icache.contains
        ic_prefetch = icache.prefetch
        preload = sim.preload
        report_icache_miss = (
            preload.report_icache_miss if preload is not None else None
        )
        p_advance = preload.advance if preload is not None else None
        trans = preload.transfer if preload is not None else None
        steering = preload is not None and sim.config.steering_enabled
        # Observed at events only: a quiet record lies in the sector of the
        # record before it, where ``OrderingTracker.observe`` is a no-op.
        tracker_observe = (
            preload.ordering_tracker.observe if steering else None
        )
        line_fills = sim._line_fills
        prune_limit = sim.LINE_FILL_PRUNE_LIMIT
        ceil = math.ceil
        GOOD = OutcomeKind.GOOD_DYNAMIC
        WRONG_TARGET = OutcomeKind.MISPREDICT_WRONG_TARGET
        TAKEN_NT = OutcomeKind.MISPREDICT_TAKEN_NOT_TAKEN
        NT_TAKEN = OutcomeKind.MISPREDICT_NOT_TAKEN_TAKEN
        BTBP_LEVEL = PredictionLevel.BTBP

        # Mutable engine state, hoisted; written back on every exit path.
        cycle = sim._cycle
        expected = sim._expected_address
        current_line = sim._current_line
        instructions = 0
        branches = 0
        taken_branches = 0
        switches = 0
        s_cycle = search.cycle
        s_addr = search.search_address
        s_empty = search._consecutive_empty
        s_first = search._first_empty_address
        s_last_taken = search._last_taken_address
        s_last_ntr = search._last_not_taken_row
        s_searches = search.searches
        s_empties = search.empty_searches
        s_preds = search.predictions_made

        # The preload clock value the object engine would hold: it advances
        # once per record at ``int(cycle)`` taken *after* the base decode
        # add but *before* fetch/branch penalties.  Replayed as one
        # boundary advance (exact: while idle the advance is a monotonic
        # clock max, and advance is prefix-decomposable).
        sync_cycle = -1

        n = len(chunk)
        ne = len(events)
        reason = None
        busy = self._preload_busy()
        while pos < n:
            event = events[ei] if ei < ne else n
            gap = event - pos
            if gap:
                # Quiet records: sequential, non-branch, in-line.  Iterated
                # adds keep float accumulation identical to the object
                # engine (base is not a dyadic rational).
                instructions += gap
                if busy:
                    # Transfers queued/in flight: the object engine advances
                    # the preload clock once per record, and those advances
                    # do real work (issue, complete, deliver) — replay them
                    # exactly.  Quiet records have no other preload
                    # interaction.
                    for _ in repeat(None, gap):
                        cycle += base
                        p_advance(int(cycle))
                    busy = bool(trans._queue or trans._inflight
                                or preload._block_waiters)
                else:
                    for _ in repeat(None, gap):
                        cycle += base
                sync_cycle = int(cycle)
                pos = event
                expected = nxts[event - 1]
                if pos >= n:
                    break
            record = chunk[pos]
            address = addrs[pos]
            discontinuity = address != expected
            if busy:
                # The object engine's per-record preload advance runs
                # before the fetch and the row probe, and while busy it can
                # deliver rows that change what the probe sees.  Escaping
                # *before* that advance keeps the no-mutation-before-escape
                # contract strict; the slow path replays decode, advance
                # and probe in the object engine's exact order.
                reason = "preload_busy"
                break
            if record.kind is not None:
                # ---- branch event: read-only prechecks, then commit ----
                if discontinuity:
                    reason = "context_switch_branch"
                    break
                taken = record.taken
                record_target = record.target
                if taken and record_target is None:
                    reason = "malformed_record"
                    break
                # Predict the fetch outcome (read-only) so the prediction
                # timeliness test below sees the post-fetch decode clock.
                line = address & line_mask
                will_fetch = line != current_line
                cycle_at_branch = cycle + base
                if will_fetch:
                    if ic_contains(address):
                        fill = line_fills.get(line)
                        if fill is not None:
                            wait = fill - cycle_at_branch
                            if wait > 0:
                                cycle_at_branch = cycle_at_branch + wait
                    else:
                        cycle_at_branch = cycle_at_branch + l2
                if taken and extra_taken > 0:
                    cycle_at_branch += extra_taken
                branch_row = address >> 5
                search_row = s_addr >> 5
                if branch_row < search_row:
                    # Searcher already past this row: a surprise shape.
                    reason = "search_behind"
                    break
                gap_rows = branch_row - search_row
                if s_empty + gap_rows >= miss_limit:
                    # Covering the gap could emit a perceived-miss report.
                    reason = "miss_report"
                    break
                # Inline row probe, replicating hits_in_row: tag-matched to
                # the probe row (aliasing congruence-class entries share
                # the way list), lowest address at/after the probe point
                # wins, BTB1 beats BTBP on an address tie.
                probe = s_addr if gap_rows == 0 else branch_row << 5
                row_limit = (branch_row << 5) + 32
                best = None
                best_address = row_limit
                best_is_btb1 = False
                best_row = None
                if btbp_rows is not None:
                    row = btbp_rows[branch_row % btbp_nrows]
                    for entry in row:
                        ea = entry.address
                        if probe <= ea <= best_address and ea < row_limit:
                            best = entry
                            best_address = ea
                            best_row = row
                row = btb1_rows[branch_row % btb1_nrows]
                for entry in row:
                    ea = entry.address
                    if probe <= ea <= best_address and ea < row_limit:
                        best = entry
                        best_address = ea
                        best_is_btb1 = True
                        best_row = row
                if best is None or best_address != address:
                    # Empty row probe or a later branch: surprise at decode.
                    reason = "no_prediction"
                    break
                from_mru = best_row[0] is best
                ready = s_cycle + SEQUENTIAL_CYCLES_PER_ROW * gap_rows \
                    + BROADCAST_LATENCY
                if ready > cycle_at_branch:
                    # Prediction broadcast too late: latency surprise.
                    reason = "late_prediction"
                    break

                # ---- commit, in the object engine's exact order ----
                expected = nxts[pos]
                instructions += 1
                cycle += base
                sync_cycle = int(cycle)
                if will_fetch:
                    current_line = line
                    hit = ic_fetch(address, int(cycle))
                    fill = line_fills.pop(line, None)
                    if hit:
                        if fill is not None:
                            wait = fill - cycle
                            if wait > 0:
                                cycle += wait
                                penalties["icache_partial_miss"] = penalties.get(
                                    "icache_partial_miss", 0.0) + wait
                                counters.icache_partially_hidden_misses += 1
                            else:
                                counters.icache_hidden_misses += 1
                    else:
                        counters.icache_demand_misses += 1
                        cycle += l2
                        penalties["icache_miss"] = penalties.get(
                            "icache_miss", 0.0) + l2
                        if report_icache_miss is not None:
                            # May upgrade a tracker into a full search,
                            # enqueuing transfers: subsequent records then
                            # need per-record preload advances.
                            report_icache_miss(address, int(cycle))
                            busy = bool(trans._queue or trans._inflight
                                        or preload._block_waiters)
                branches += 1
                if taken:
                    taken_branches += 1
                    if extra_taken > 0:
                        cycle += extra_taken
                if gap_rows:
                    # _walk_gap, report-free by the precheck above.
                    if s_empty == 0:
                        s_first = s_addr
                    s_empty += gap_rows
                    s_searches += gap_rows
                    s_empties += gap_rows
                    s_cycle += SEQUENTIAL_CYCLES_PER_ROW * gap_rows
                    s_addr = branch_row << 5
                # _predict: one prediction for ``best``.
                s_searches += 1
                s_empty = 0
                resolution = resolve_content(best)
                predicted_taken = resolution.taken
                predicted_target = resolution.target
                if predicted_taken:
                    if s_last_taken == address:
                        cost = 1  # COST_SINGLE_BRANCH_LOOP
                    elif fit_probe(address):
                        cost = 2  # COST_FIT
                    elif from_mru and best_is_btb1:
                        cost = 3  # COST_TAKEN_MRU
                    else:
                        cost = 4  # COST_TAKEN_NON_MRU
                else:
                    if s_last_ntr == (address & ~31):
                        cost = 1  # COST_NOT_TAKEN_SECOND_IN_ROW
                    else:
                        cost = 4  # COST_NOT_TAKEN
                s_preds += 1
                s_cycle += cost
                if predicted_taken and predicted_target is not None:
                    s_last_taken = address
                    s_last_ntr = None
                    fit_train(address, (predicted_target >> 5) % btb1_nrows)
                    s_addr = predicted_target
                else:
                    s_last_taken = None
                    s_last_ntr = address & ~31
                    s_addr = address + 2
                # _dynamic_branch: move protocol, classify, train.
                if best_is_btb1:
                    btb1_touch(best)
                else:
                    use_prediction(RowHit(best, BTBP_LEVEL, from_mru))
                if predicted_taken == taken and (
                    not taken or predicted_target == record_target
                ):
                    outcomes[GOOD] += 1
                    if taken:
                        # _prefetch_target at the prediction's ready cycle.
                        if not ic_prefetch(record_target):
                            target_line = record_target & line_mask
                            fill_complete = ready + l2
                            current = line_fills.get(target_line)
                            if current is None or fill_complete < current:
                                line_fills[target_line] = fill_complete
                        if len(line_fills) > prune_limit:
                            line_fills = {
                                fill_addr: fill_cycle
                                for fill_addr, fill_cycle in line_fills.items()
                                if ic_contains(fill_addr)
                            }
                            sim._line_fills = line_fills
                else:
                    if predicted_taken and taken:
                        outcomes[WRONG_TARGET] += 1
                    elif predicted_taken:
                        outcomes[TAKEN_NT] += 1
                    else:
                        outcomes[NT_TAKEN] += 1
                    cycle += mispredict_penalty
                    penalties["mispredict"] = penalties.get(
                        "mispredict", 0.0) + mispredict_penalty
                    # _restart_search at the resolved next address.
                    restart_cycle = ceil(cycle - refill)
                    if restart_cycle < 0:
                        restart_cycle = 0
                    next_address = nxts[pos]
                    s_addr = next_address
                    s_cycle = restart_cycle
                    s_empty = 0
                    s_first = next_address
                    s_last_taken = None
                    s_last_ntr = None
                train(best, record)
                bht_update(address, record.kind, taken)
                history_record(address, taken)
                seen_add(address)
                if tracker_observe is not None:
                    tracker_observe(address)
                pos += 1
                ei += 1
            else:
                # ---- non-branch event: discontinuity / line crossing ----
                if discontinuity:
                    switches += 1
                    restart_cycle = ceil(cycle)
                    s_addr = address
                    s_cycle = restart_cycle
                    s_empty = 0
                    s_first = address
                    s_last_taken = None
                    s_last_ntr = None
                    current_line = -1
                    line_fills.clear()
                expected = nxts[pos]
                instructions += 1
                cycle += base
                sync_cycle = int(cycle)
                line = address & line_mask
                if line != current_line:
                    current_line = line
                    hit = ic_fetch(address, int(cycle))
                    fill = line_fills.pop(line, None)
                    if hit:
                        if fill is not None:
                            wait = fill - cycle
                            if wait > 0:
                                cycle += wait
                                penalties["icache_partial_miss"] = penalties.get(
                                    "icache_partial_miss", 0.0) + wait
                                counters.icache_partially_hidden_misses += 1
                            else:
                                counters.icache_hidden_misses += 1
                    else:
                        counters.icache_demand_misses += 1
                        cycle += l2
                        penalties["icache_miss"] = penalties.get(
                            "icache_miss", 0.0) + l2
                        if report_icache_miss is not None:
                            report_icache_miss(address, int(cycle))
                            busy = bool(trans._queue or trans._inflight
                                        or preload._block_waiters)
                if tracker_observe is not None:
                    tracker_observe(address)
                pos += 1
                ei += 1

        # Write hoisted state back; sync the idle preload clock (exact:
        # while idle, advance is a pure monotonic max, and advance itself
        # is prefix-decomposable if work was just enqueued).
        sim._cycle = cycle
        sim._expected_address = expected
        sim._current_line = current_line
        counters.instructions += instructions
        counters.branches += branches
        counters.taken_branches += taken_branches
        counters.context_switches += switches
        search.cycle = s_cycle
        search.search_address = s_addr
        search._consecutive_empty = s_empty
        search._first_empty_address = s_first
        search._last_taken_address = s_last_taken
        search._last_not_taken_row = s_last_ntr
        search.searches = s_searches
        search.empty_searches = s_empties
        search.predictions_made = s_preds
        if preload is not None and sync_cycle >= 0:
            preload.advance(sync_cycle)
        return pos, ei, reason

