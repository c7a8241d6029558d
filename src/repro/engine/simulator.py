"""Whole-system trace-driven simulator.

Binds the first-level predictor, the lookahead search pipeline, the BTB2
preload engine and the L1I model to a dynamic trace, accounting cycles per
the penalty model of :mod:`repro.engine.params` and classifying every
dynamic branch outcome per the Figure 4 taxonomy.

Simulation contract (see DESIGN.md §1/§7 for the substitution rationale):

* instructions are consumed in order at ``1/decode_width`` cycles each,
  taken branches occupying at least one decode cycle;
* the lookahead search engine runs on its own clock; a prediction helps
  only if broadcast at or before the cycle decode consumes the branch,
  otherwise the branch is a surprise (latency class);
* correctly predicted taken branches prefetch their target line, hiding
  some or all of the L2 instruction latency;
* mispredictions and bad surprises add flat restart penalties and restart
  the search engine at the resolved next address;
* the BTB2 transfer engine runs concurrently; transferred entries become
  visible in the BTBP at their transfer-completion cycles.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (audit -> engine)
    from repro.audit import Auditor
    from repro.telemetry import Telemetry

from repro.btb.btb2 import BTB2
from repro.caches.icache import ICache
from repro.core.config import PredictorConfig, ZEC12_CONFIG_2
from repro.core.events import MissReport, OutcomeKind, Prediction, PredictionLevel
from repro.core.hierarchy import FirstLevelPredictor, RowHit
from repro.core.search import LookaheadSearch
from repro.engine.params import DEFAULT_TIMING, TimingParams
from repro.engine.predictor import Predictor
from repro.isa.address import block_address, sector_address
from repro.metrics.counters import SimCounters
from repro.preload.engine import PreloadEngine
from repro.preload.ordering import SECTOR_SHIFT
from repro.trace.record import TraceRecord


@dataclass
class SimulationResult:
    """Outcome of one simulation run: counters plus structure snapshots."""

    config_name: str
    counters: SimCounters
    search_stats: dict[str, int] = field(default_factory=dict)
    btbp_stats: dict[str, int] = field(default_factory=dict)
    btb2_stats: dict[str, int] = field(default_factory=dict)
    preload_stats: dict[str, int] = field(default_factory=dict)
    icache_stats: dict[str, float] = field(default_factory=dict)

    @property
    def cpi(self) -> float:
        """Cycles per instruction of the run."""
        return self.counters.cpi

    @property
    def bad_outcome_fraction(self) -> float:
        """Fraction of branch outcomes that are bad (Figure 4)."""
        return self.counters.bad_outcome_fraction


class Simulator(Predictor):
    """One core, one trace, one configuration: the paper's predictor.

    The two-level bulk-preload stack behind the
    :class:`~repro.engine.predictor.Predictor` contract, registered as
    ``"paper"`` in :mod:`repro.predictors.registry`.
    """

    name = "paper"

    #: Pending-prefetch map size beyond which completed/evicted entries are
    #: pruned (class attribute so tests can lower it).
    LINE_FILL_PRUNE_LIMIT = 8192

    #: Version of the :meth:`state_dict` schema.  Bump on any change to what
    #: a snapshot contains or how it is laid out; :meth:`load_state_dict`
    #: refuses other versions.  v2 wrote BTB entries as positional rows; v3
    #: writes the BTB levels, the PHT, the CTB and the surprise BHT as one
    #: list per column
    #: (:meth:`repro.btb.storage.BranchTargetBuffer.state_dict`).
    STATE_VERSION = 3

    #: 4 KB blocks remembered by the functional-warming bulk preload
    #: (:meth:`warm_step`): a block already preloaded this recently is not
    #: preloaded again.  The window mirrors the tracker file's per-block
    #: dedup, so it must stay near the architected tracker count — a wide
    #: window would suppress the re-preloads that happen on every block
    #: revisit in detailed mode, and a very narrow one re-preloads far more
    #: often than the real engine ever searches.  16 was calibrated against
    #: the detailed engine's transfer volume on the Table 4 workloads.
    WARM_PRELOAD_BLOCKS = 16

    def __init__(
        self,
        config: PredictorConfig = ZEC12_CONFIG_2,
        timing: TimingParams = DEFAULT_TIMING,
        audit: "Auditor | None" = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.config = config
        self.timing = timing
        # Per-record timing constants, read once: ``base_decode_cycles`` is
        # a property that divides on every read.
        self._base_decode_cycles = timing.base_decode_cycles
        self._extra_taken_cycles = (
            timing.taken_branch_decode_cycles - timing.base_decode_cycles
        )
        self._line_mask = ~(timing.icache_line_bytes - 1)
        self.btb2 = (
            BTB2(rows=config.btb2_rows, ways=config.btb2_ways)
            if config.btb2_enabled
            else None
        )
        self.hierarchy = FirstLevelPredictor(config, btb2=self.btb2)
        self.icache = ICache(
            capacity_bytes=timing.icache_capacity_bytes,
            ways=timing.icache_ways,
            line_bytes=timing.icache_line_bytes,
            miss_window=timing.icache_miss_window,
        )
        self.preload = (
            PreloadEngine(config, self.btb2, self.hierarchy, self.icache)
            if self.btb2 is not None
            else None
        )
        #: The ordering tracker ``step`` feeds completing instructions to
        #: (``PreloadEngine.observe_completion``), or ``None`` when steering
        #: is off or there is no preload engine.
        self._ordering = (
            self.preload.ordering_tracker
            if self.preload is not None and config.steering_enabled
            else None
        )
        self.search = LookaheadSearch(
            self.hierarchy,
            miss_limit=config.miss_search_limit,
            on_miss=self._on_perceived_miss,
        )
        self.counters = SimCounters()
        self._cycle = 0.0
        self._started = False
        self._expected_address: int | None = None
        self._seen_branches: set[int] = set()
        self._current_line = -1
        #: line address -> cycle its L2 fill completes (prefetches in flight).
        self._line_fills: dict[int, float] = {}
        #: Recently warm-preloaded 4 KB blocks (LRU order), warming-mode only.
        self._warm_blocks: OrderedDict[int, None] = OrderedDict()
        self.audit = audit
        if audit is not None:
            audit.attach(self)
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.attach(self)
        #: Optional lockstep observer (:mod:`repro.oracle.differential`);
        #: ``None`` keeps the branch-resolution paths hook-free.
        self.probe = None

    # -- callbacks -----------------------------------------------------------

    def _on_perceived_miss(self, report: MissReport) -> None:
        if self.preload is not None:
            self.preload.advance(report.cycle)
            self.preload.report_btb1_miss(report)

    # -- public API ------------------------------------------------------------

    def run(self, records: Iterable[TraceRecord]) -> SimulationResult:
        """Simulate ``records`` in detail and return the collected results."""
        self.feed(records)
        return self.finish()

    def feed(self, records: Iterable[TraceRecord]) -> None:
        """Consume ``records`` in detailed mode without finishing the run.

        Every record takes :meth:`step`.  Successive calls continue one
        run: splitting a trace across feeds (at a measure point, a
        heartbeat, a service chunk) reaches the same state as one feed
        over the whole.
        """
        step = self.step
        for record in records:
            step(record)

    def step(self, record: TraceRecord) -> None:
        """Simulate one trace record.

        Once per record the preload engine advances to the decode clock
        and the completing instruction is fed to the ordering tracker.
        Both calls are skipped when they would change nothing but the
        transfer clock: while the engine is idle (:meth:`PreloadEngine.idle
        <repro.preload.engine.PreloadEngine.idle>`) the clock is raised
        here, and an address in the tracker's last sector is not fed
        (:attr:`OrderingTracker.last_sector
        <repro.preload.ordering.OrderingTracker.last_sector>`).
        """
        address = record.address
        kind = record.kind
        if not self._started:
            self.search.restart(address, 0)
            self._started = True
        elif address != self._expected_address:
            # Control arrived somewhere the previous record cannot explain:
            # a time-slice switch or interrupt in the trace.  Fetch and the
            # lookahead searcher restart at the new stream, as on hardware;
            # the fetch state of the old stream is dead — forgetting
            # ``_current_line`` forces a real fetch of the new stream's
            # first line (even when it aliases the old one), and in-flight
            # prefetch fills must not attribute hidden misses to a context
            # that never launched them.
            self.counters.context_switches += 1
            self.search.restart(address, math.ceil(self._cycle))
            self._current_line = -1
            self._line_fills.clear()
            if self.telemetry is not None:
                self.telemetry.on_context_switch(self._cycle, address)
        # ``record.next_address``, inline.
        if kind is not None and record.taken:
            target = record.target
            if target is None:
                raise ValueError(f"taken branch at {address:#x} has no target")
            self._expected_address = target
        else:
            self._expected_address = address + record.length
        self.counters.instructions += 1
        self._cycle += self._base_decode_cycles
        preload = self.preload
        if preload is not None:
            cycle = int(self._cycle)
            if preload.idle():
                transfer = preload.transfer
                if cycle > transfer.clock:
                    transfer.clock = cycle
            else:
                preload.advance(cycle)
        line = address & self._line_mask
        if line != self._current_line:
            self._fetch(address, line)
        if kind is not None:
            self._branch(record)
        ordering = self._ordering
        if ordering is not None \
                and address >> SECTOR_SHIFT != ordering.last_sector:
            ordering.observe(address)
        if self.audit is not None:
            self.audit.after_step(self, record)
        if self.telemetry is not None:
            self.telemetry.after_step(self, record)

    # -- functional warming ----------------------------------------------------

    def warm_step(self, record: TraceRecord) -> None:
        """Consume one record in functional-warming mode (SMARTS-style).

        Predictors and caches keep learning — BTB content migrates, the
        bimodal/PHT/CTB/surprise-BHT state trains, icache tags update — but
        no cycle accounting, no lookahead-search timing, and no counter
        mutation happens.  This is what makes interval sampling fast: the
        fast-forward path costs a couple of table probes per record instead
        of the full pipeline model.

        The search/transfer machinery idles during warming; the sampling
        runner calls :meth:`begin_interval` before each measured interval to
        resynchronize it.
        """
        if not self._started:
            self._started = True
        elif record.address != self._expected_address:
            # Context switch while warming: the old stream's fetch state is
            # dead, exactly as in :meth:`step`, but without cycle accounting.
            self._current_line = -1
            self._line_fills.clear()
        self._expected_address = record.next_address
        line = record.address & self._line_mask
        if line != self._current_line:
            self._current_line = line
            self.icache.fetch(record.address, int(self._cycle))
        if record.kind is None:
            return
        entry = self.hierarchy.btb1.lookup(record.address)
        if entry is not None:
            self.hierarchy.btb1.touch(entry)
        elif self.hierarchy.btbp is not None:
            entry = self.hierarchy.btbp.lookup(record.address)
            if entry is not None:
                # Warming approximates every BTBP hit as a used prediction:
                # the entry is promoted into the BTB1 and the victim chain
                # runs, keeping capacity pressure realistic.
                self.hierarchy.use_prediction(
                    RowHit(entry, PredictionLevel.BTBP,
                           self.hierarchy.btbp.is_mru(entry))
                )
        if entry is not None:
            self.hierarchy.train(entry, record)
        else:
            if self.btb2 is not None:
                self._warm_preload(record.address)
            if record.taken and record.target is not None:
                self.hierarchy.surprise_install(record)
        if record.taken and record.target is not None:
            self.icache.prefetch(record.target)
        self.hierarchy.record_resolved_branch(record)
        self._seen_branches.add(record.address)

    def _warm_preload(self, address: int) -> None:
        """Functional stand-in for the bulk-preload engine during warming.

        A first-level miss in detailed mode produces a miss report, a
        tracker, and BTB2→BTBP transfers.  Warming has no timing to drive
        that machinery, so it approximates the steady-state *content* effect
        directly, mirroring the tracker escalation of section 3.5/3.6: the
        first miss in a 4 KB block runs the partial search (a few rows at
        the miss sector), a repeat miss in the same block upgrades to the
        full-block search, further misses are absorbed — all with the same
        clone/demote transfer semantics as the real engine, deduplicated
        per block over a small LRU window sized like the tracker file.
        Without this, measured intervals would start with a systematically
        underfilled BTBP and overestimate CPI.
        """
        block = block_address(address)
        stage = self._warm_blocks.get(block)
        if stage == 2:
            self._warm_blocks.move_to_end(block)
            return
        preload_write = self.hierarchy.preload_write
        if stage is None:
            self._warm_blocks[block] = 1
            if len(self._warm_blocks) > self.WARM_PRELOAD_BLOCKS:
                self._warm_blocks.popitem(last=False)
            entries = self.btb2.transfer_span(
                sector_address(address), self.config.partial_search_rows
            )
        else:
            self._warm_blocks[block] = 2
            self._warm_blocks.move_to_end(block)
            entries = self.btb2.transfer_block(block)
        for entry in entries:
            preload_write(entry)

    def warm_run(self, records: Iterable[TraceRecord]) -> None:
        """Functionally warm a span of records (bulk :meth:`warm_step`).

        Behaviorally identical to calling :meth:`warm_step` on each record
        in order — pinned by an equivalence test over full state snapshots —
        but with the record loop and every hot attribute lookup hoisted into
        one frame.  Warming throughput bounds sampled-simulation speedup
        (the detailed fraction is small), so this path is worth the
        duplication.
        """
        hierarchy = self.hierarchy
        btb1 = hierarchy.btb1
        btb1_lookup = btb1.lookup
        btb1_touch = btb1.touch
        btbp = hierarchy.btbp
        btbp_lookup = btbp.lookup if btbp is not None else None
        btbp_is_mru = btbp.is_mru if btbp is not None else None
        warm_preload = self._warm_preload if self.btb2 is not None else None
        train = hierarchy.train
        use_prediction = hierarchy.use_prediction
        surprise_install = hierarchy.surprise_install
        # record_resolved_branch and icache.prefetch, unwrapped: the former
        # is two calls, and a prefetch's install alone leaves the cache in
        # the same state as probe+install (the probe only feeds the unused
        # already-present return).
        bht_update = hierarchy.surprise_bht.update
        history_record = hierarchy.history.record
        icache_fetch = self.icache.fetch
        icache_prefetch = self.icache._cache.install
        seen_add = self._seen_branches.add
        line_mask = self._line_mask
        btbp_level = PredictionLevel.BTBP
        cycle = int(self._cycle)
        started = self._started
        expected = self._expected_address
        current_line = self._current_line
        try:
            for record in records:
                address = record.address
                if address != expected:
                    if started:
                        current_line = -1
                        self._line_fills.clear()
                    else:
                        started = True
                kind = record.kind
                if kind is None:
                    expected = address + record.length
                    line = address & line_mask
                    if line != current_line:
                        current_line = line
                        icache_fetch(address, cycle)
                    continue
                taken = record.taken
                target = record.target
                if taken:
                    if target is None:
                        # Refused exactly where warm_step's next_address
                        # refuses it; the finally keeps the state equal.
                        raise ValueError(
                            f"taken branch at {address:#x} has no target")
                    expected = target
                else:
                    expected = address + record.length
                line = address & line_mask
                if line != current_line:
                    current_line = line
                    icache_fetch(address, cycle)
                entry = btb1_lookup(address)
                if entry is not None:
                    btb1_touch(entry)
                    train(entry, record)
                else:
                    entry = (btbp_lookup(address)
                             if btbp_lookup is not None else None)
                    if entry is not None:
                        use_prediction(
                            RowHit(entry, btbp_level, btbp_is_mru(entry))
                        )
                        train(entry, record)
                    else:
                        if warm_preload is not None:
                            warm_preload(address)
                        if taken:
                            surprise_install(record)
                if taken:
                    icache_prefetch(target)
                bht_update(address, kind, taken)
                history_record(address, taken)
                seen_add(address)
        finally:
            self._started = started
            self._expected_address = expected
            self._current_line = current_line

    def begin_interval(self, address: int) -> None:
        """Resynchronize timing machinery at a measured-interval start.

        After a functional-warming gap the lookahead searcher's position is
        stale (it idled while the warmed path moved on); restart it at the
        interval's first instruction, as a pipeline restart would.  Pending
        prefetch fills from the previous detailed interval are dropped so
        hidden-miss attribution cannot cross a warming gap.
        """
        self.search.restart(address, math.ceil(self._cycle))
        self._line_fills.clear()

    def finish(self) -> SimulationResult:
        """Finalize clocks and snapshot structure statistics."""
        if self.preload is not None:
            self.preload.flush()
        self.counters.cycles = self._cycle
        if self.audit is not None:
            self.audit.after_finish(self)
        if self.telemetry is not None:
            self.telemetry.after_finish(self)
        return self._result()

    # -- checkpointing -----------------------------------------------------------

    def model_fingerprint(self) -> str:
        """Digest of the (config, timing) pair a snapshot is only valid for.

        Snapshots encode learned *state*, not geometry: loading BTB rows
        into a different geometry would silently corrupt indexing, so the
        fingerprint is checked on load.
        """
        payload = repr((self.config, self.timing))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def state_dict(self) -> dict:
        """Versioned, JSON-serializable snapshot of all architectural state.

        Covers every structure whose content affects future behavior: the
        three BTB levels, PHT/CTB/FIT/surprise-BHT/path history, icache
        tags, lookahead-search position, preload trackers and in-flight
        transfers, counters, and the simulator's own fetch/clock state.
        Attached observers (audit, telemetry) are wiring, not state, and
        are not included.

        The bulk of a warmed state is laid out as columns: each BTB level
        writes its occupied rows, their way counts and one list per entry
        field, and the PHT, CTB and surprise BHT one index list plus one
        list per value.  Restoring rebuilds each table in one pass, and the
        checkpoint codec (:mod:`repro.sampling.checkpoint`) stores the
        integer columns as raw sections.
        """
        return {
            "version": self.STATE_VERSION,
            "model": self.model_fingerprint(),
            "config_name": self.config.name,
            "cycle": self._cycle,
            "started": self._started,
            "expected_address": self._expected_address,
            "seen_branches": sorted(self._seen_branches),
            "current_line": self._current_line,
            "warm_blocks": [
                [block, stage] for block, stage in self._warm_blocks.items()
            ],
            "line_fills": [
                [line, fill] for line, fill in sorted(self._line_fills.items())
            ],
            "counters": self.counters.state_dict(),
            "hierarchy": self.hierarchy.state_dict(),
            "btb2": self.btb2.state_dict() if self.btb2 is not None else None,
            "icache": self.icache.state_dict(),
            "search": self.search.state_dict(),
            "preload": (
                self.preload.state_dict() if self.preload is not None else None
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`.

        Raises ``ValueError`` on a schema-version or model-fingerprint
        mismatch, on a table that would not restore as stored (columns
        that disagree, an index outside the table, an unknown branch
        kind), or on a malformed field of the simulator's own, before
        touching any state, rather than restoring into an incompatible
        simulator.
        """
        if state.get("version") != self.STATE_VERSION:
            raise ValueError(
                f"checkpoint schema version {state.get('version')!r} != "
                f"supported {self.STATE_VERSION}"
            )
        if state.get("model") != self.model_fingerprint():
            raise ValueError(
                "checkpoint was taken under a different config/timing "
                f"(snapshot model {state.get('model')!r}, "
                f"this simulator {self.model_fingerprint()!r})"
            )
        self.hierarchy.check_state(state["hierarchy"])
        if self.btb2 is not None:
            self.btb2.check_state(state["btb2"])
        # Every field of the simulator's own is read before the first
        # assignment, so a malformed one refuses the whole state.
        cycle = state["cycle"]
        started = state["started"]
        expected_address = state["expected_address"]
        seen_branches = set(state["seen_branches"])
        current_line = state["current_line"]
        warm_blocks = OrderedDict(
            (block, stage) for block, stage in state["warm_blocks"]
        )
        line_fills = {line: fill for line, fill in state["line_fills"]}
        self._cycle = cycle
        self._started = started
        self._expected_address = expected_address
        self._seen_branches = seen_branches
        self._current_line = current_line
        self._warm_blocks = warm_blocks
        self._line_fills = line_fills
        self.counters.load_state_dict(state["counters"])
        self.hierarchy.load_state_dict(state["hierarchy"])
        if self.btb2 is not None:
            self.btb2.load_state_dict(state["btb2"])
        self.icache.load_state_dict(state["icache"])
        self.search.load_state_dict(state["search"])
        if self.preload is not None:
            self.preload.load_state_dict(state["preload"])

    # -- instruction fetch -------------------------------------------------------

    def _fetch(self, address: int, line: int) -> None:
        """Fetch ``line``, the new i-cache line holding ``address``."""
        self._current_line = line
        hit = self.icache.fetch(address, int(self._cycle))
        fill = self._line_fills.pop(line, None)
        if hit:
            result = "hit"
            if fill is not None:
                wait = fill - self._cycle
                if wait > 0:
                    # Prefetch launched but not complete: partially hidden.
                    self._penalize("icache_partial_miss", wait)
                    self.counters.icache_partially_hidden_misses += 1
                    result = "partial"
                else:
                    self.counters.icache_hidden_misses += 1
                    result = "hidden"
            if self.telemetry is not None:
                self.telemetry.on_fetch(self._cycle, address, result)
            return
        # Demand miss, L2 hit (L2+ infinite per the paper's methodology).
        self.counters.icache_demand_misses += 1
        self._penalize("icache_miss", self.timing.l2_instruction_latency)
        if self.telemetry is not None:
            self.telemetry.on_fetch(self._cycle, address, "miss")
        if self.preload is not None:
            self.preload.report_icache_miss(address, int(self._cycle))

    def _prefetch_target(self, target: int, issue_cycle: float) -> None:
        """Model the instruction prefetch a predicted-taken branch launches."""
        line = target & self._line_mask
        already_present = self.icache.prefetch(target)
        if not already_present:
            fill_complete = issue_cycle + self.timing.l2_instruction_latency
            current = self._line_fills.get(line)
            if current is None or fill_complete < current:
                self._line_fills[line] = fill_complete
        if len(self._line_fills) > self.LINE_FILL_PRUNE_LIMIT:
            # Prune only fills whose line the icache has since evicted: a
            # demand fetch of such a line misses anyway, so the entry can
            # never attribute a (partially) hidden miss.  Completed fills
            # for *resident* lines stay — they are exactly the pending
            # ``icache_hidden_misses`` attributions, and dropping them
            # (as a completion-time prune would) silently skews counters.
            self._line_fills = {
                addr: cycle
                for addr, cycle in self._line_fills.items()
                if self.icache.contains(addr)
            }

    # -- branch handling -----------------------------------------------------------

    def _branch(self, record: TraceRecord) -> None:
        self.counters.branches += 1
        if record.taken:
            self.counters.taken_branches += 1
            if self._extra_taken_cycles > 0:
                self._cycle += self._extra_taken_cycles
        outcome = self.search.advance_to_branch(record.address)
        prediction = outcome.prediction
        if prediction is not None and prediction.ready_cycle <= self._cycle:
            self._dynamic_branch(record, prediction)
        else:
            self._surprise_branch(record, prediction)
        self._seen_branches.add(record.address)

    def _dynamic_branch(self, record: TraceRecord, prediction: Prediction) -> None:
        """A prediction was available in time: apply it and resolve."""
        if self.audit is not None:
            self.audit.on_prediction_used(self.hierarchy, prediction)
        victim = self.hierarchy.use_prediction(prediction)
        correct_direction = prediction.taken == record.taken
        correct_target = (not record.taken) or prediction.target == record.target
        if correct_direction and correct_target:
            kind = OutcomeKind.GOOD_DYNAMIC
            self.counters.record_outcome(kind)
            if self.telemetry is not None:
                self.telemetry.on_outcome(self._cycle, record, kind, 0.0)
            if record.taken and record.target is not None:
                self._prefetch_target(record.target, prediction.ready_cycle)
        else:
            if prediction.taken and record.taken:
                kind = OutcomeKind.MISPREDICT_WRONG_TARGET
            elif prediction.taken:
                kind = OutcomeKind.MISPREDICT_TAKEN_NOT_TAKEN
            else:
                kind = OutcomeKind.MISPREDICT_NOT_TAKEN_TAKEN
            self.counters.record_outcome(kind)
            self._penalize("mispredict", self.timing.mispredict_penalty)
            if self.telemetry is not None:
                self.telemetry.on_outcome(
                    self._cycle, record, kind, self.timing.mispredict_penalty
                )
                self.telemetry.on_resteer(
                    self._cycle, record.next_address, "mispredict"
                )
            self._restart_search(record.next_address)
        self.hierarchy.train(prediction.entry, record)
        self.hierarchy.record_resolved_branch(record)
        if self.probe is not None:
            self.probe.on_dynamic_resolve(record, prediction, kind, victim)

    def _surprise_branch(
        self, record: TraceRecord, late_prediction: Prediction | None
    ) -> None:
        """No usable dynamic prediction: the static-guess surprise path."""
        resident_level = self.hierarchy.probe_level(record.address)
        seen_before = record.address in self._seen_branches
        backward = record.target is not None and record.target <= record.address
        guess_taken = self.hierarchy.surprise_bht.guess(
            record.address, record.kind, backward
        )
        self.hierarchy.surprise_bht.record_outcome(guess_taken, record.taken)

        bad = guess_taken or record.taken
        if not bad:
            self.counters.record_outcome(OutcomeKind.GOOD_SURPRISE)
            if self.telemetry is not None:
                self.telemetry.on_surprise(
                    self._cycle, record.address, "good", guess_taken
                )
                self.telemetry.on_outcome(
                    self._cycle, record, OutcomeKind.GOOD_SURPRISE, 0.0
                )
            if self.probe is not None:
                self.probe.on_surprise(
                    record, guess_taken, late_prediction is not None,
                    OutcomeKind.GOOD_SURPRISE,
                )
            if late_prediction is not None and late_prediction.taken:
                # The late prediction steered the searcher to a taken target
                # the pipeline never followed: resync it sequentially (no
                # flush happened, so no refill head start either).
                self.search.restart(record.next_sequential, math.ceil(self._cycle))
            self._train_resident(record)
            self.hierarchy.record_resolved_branch(record)
            if self.probe is not None:
                self.probe.on_surprise_commit(record)
            return

        kind = self._classify_surprise(seen_before, resident_level,
                                       late_prediction)
        self.counters.record_outcome(kind)
        if self.probe is not None:
            # Before run_ahead: the free-running window can complete BTB2
            # transfers, and the observer must classify from pre-run state.
            self.probe.on_surprise(
                record, guess_taken, late_prediction is not None, kind
            )
        if self.telemetry is not None:
            self.telemetry.on_surprise(
                self._cycle, record.address, kind.value, guess_taken
            )
        if (
            self.preload is not None
            and self.config.decode_miss_reporting
            and guess_taken
        ):
            # Alternative miss definition (3.4): a statically-guessed-taken
            # branch reaching decode unpredicted is itself a miss report.
            self.preload.report_decode_miss(record.address, math.ceil(self._cycle))
        # The searcher free-runs until the restart this surprise causes —
        # that window is where perceived BTB1 misses get detected and BTB2
        # transfers started, ahead of the resolution (3.4/3.6).
        penalty = self._surprise_penalty(record, guess_taken)
        self.search.run_ahead(
            math.ceil(self._cycle + penalty - self.timing.frontend_refill_cycles)
        )
        self._penalize("surprise", penalty)
        if self.telemetry is not None:
            self.telemetry.on_outcome(self._cycle, record, kind, penalty)
            self.telemetry.on_resteer(
                self._cycle, record.next_address, "surprise"
            )
        if record.taken and record.target is not None:
            self._prefetch_target(record.target, self._cycle)
            self.hierarchy.surprise_install(record)
        self._train_resident(record)
        self.hierarchy.record_resolved_branch(record)
        if self.probe is not None:
            self.probe.on_surprise_commit(record)
        self._restart_search(record.next_address)

    def _classify_surprise(
        self,
        seen_before: bool,
        resident_level,
        late_prediction: Prediction | None,
    ) -> OutcomeKind:
        """Compulsory / latency / capacity taxonomy of section 5.1."""
        if not seen_before:
            return OutcomeKind.SURPRISE_COMPULSORY
        if late_prediction is not None or resident_level is not None:
            return OutcomeKind.SURPRISE_LATENCY
        return OutcomeKind.SURPRISE_CAPACITY

    def _surprise_penalty(self, record: TraceRecord, guess_taken: bool) -> float:
        """Penalty of a bad surprise branch.

        A correctly-guessed-taken relative branch redirects at decode (the
        target is computable from instruction text); everything else —
        wrong static guess, or a register-indirect target — waits for
        execution-time resolution.
        """
        if (
            guess_taken
            and record.taken
            and record.kind is not None
            and not record.kind.target_changes
        ):
            return self.timing.surprise_taken_decode_penalty
        return self.timing.surprise_resolution_penalty

    def _train_resident(self, record: TraceRecord) -> None:
        """Keep a first-level-resident entry fresh even when it missed decode."""
        entry = self.hierarchy.btb1.lookup(record.address)
        if entry is None and self.hierarchy.btbp is not None:
            entry = self.hierarchy.btbp.lookup(record.address)
        if entry is not None:
            self.hierarchy.train(entry, record)

    # -- helpers --------------------------------------------------------------------

    def _penalize(self, cause: str, cycles: float) -> None:
        self._cycle += cycles
        self.counters.attribute_penalty(cause, cycles)

    def _restart_search(self, address: int) -> None:
        """Restart the searcher after a pipeline redirect.

        The restart fires when the redirect is resolved, but decode's clock
        (``self._cycle``) already includes the frontend refill portion of
        the penalty — the window in which branch prediction runs ahead of
        decode.  The searcher therefore restarts ``frontend_refill_cycles``
        before decode resumes.
        """
        restart_cycle = self._cycle - self.timing.frontend_refill_cycles
        self.search.restart(address, max(0, math.ceil(restart_cycle)))

    def _result(self) -> SimulationResult:
        btbp = self.hierarchy.btbp
        return SimulationResult(
            config_name=self.config.name,
            counters=self.counters,
            search_stats={
                "searches": self.search.searches,
                "empty_searches": self.search.empty_searches,
                "predictions_made": self.search.predictions_made,
                "miss_reports": self.search.miss_reports_made,
            },
            btbp_stats=(
                {
                    source.value: count
                    for source, count in btbp.writes_by_source.items()
                }
                if btbp is not None
                else {}
            ),
            btb2_stats=(
                {
                    "transfer_hits": self.btb2.transfer_hits,
                    "victim_writes": self.btb2.victim_writes,
                    "surprise_writes": self.btb2.surprise_writes,
                    "occupancy": len(self.btb2),
                }
                if self.btb2 is not None
                else {}
            ),
            preload_stats=(
                {
                    "full_searches": self.preload.full_searches,
                    "partial_searches": self.preload.partial_searches,
                    "partial_upgrades": self.preload.partial_upgrades,
                    "partial_invalidations": self.preload.partial_invalidations,
                    "rows_read": self.preload.transfer.rows_read,
                    "entries_transferred": self.preload.transfer.entries_transferred,
                    "dropped_miss_reports": self.preload.trackers.dropped_miss_reports,
                }
                if self.preload is not None
                else {}
            ),
            icache_stats={
                "hits": self.icache.hits,
                "misses": self.icache.misses,
                "miss_rate": self.icache.miss_rate,
            },
        )


def simulate(
    records: Iterable[TraceRecord],
    config: PredictorConfig = ZEC12_CONFIG_2,
    timing: TimingParams = DEFAULT_TIMING,
    audit: "Auditor | None" = None,
    telemetry: "Telemetry | None" = None,
) -> SimulationResult:
    """Convenience one-call simulation of ``records`` under ``config``."""
    return Simulator(
        config=config, timing=timing, audit=audit, telemetry=telemetry,
    ).run(records)
