"""First-level predictor wiring and the inter-level move protocol.

This module binds the structures of section 3.1 into the first-level branch
predictor and implements the content-movement protocol of sections 3.1/3.3:

* predictions are made from the BTB1 and BTBP, read in parallel;
* "Content is moved into the BTB1 upon making a branch prediction from the
  BTBP.  At that time the replaced BTB1 entry (the BTB1 victim) is moved
  into the BTBP and the second level Branch Target Buffer (BTB2)";
* surprise branches that resolve taken are installed into the BTBP *and*
  duplicated into the BTB2;
* bulk-transfer hits from the BTB2 are written into the BTBP.

The BTB2 itself is owned by the preload engine; the hierarchy holds a
reference so victim/surprise writes can flow down.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.btb.btb1 import BTB1
from repro.btb.btb2 import BTB2
from repro.btb.btbp import BTBP, WriteSource
from repro.btb.ctb import CTB
from repro.btb.entry import BTBEntry, WEAK_TAKEN
from repro.btb.fit import FIT
from repro.btb.history import PathHistory
from repro.btb.pht import PHT
from repro.btb.surprise import SurpriseBHT
from repro.core.config import ExclusivityMode, PredictorConfig
from repro.core.events import Prediction, PredictionLevel
from repro.isa.address import ROW_BYTES
from repro.isa.opcodes import BranchKind
from repro.trace.record import TraceRecord


@dataclass(slots=True)
class RowHit:
    """One branch found by a row search, with its source structure.

    Like the values of :mod:`repro.core.events`, a plain slotted value: it
    is built once per row probe and never changed after.
    """

    entry: BTBEntry
    level: PredictionLevel
    from_mru: bool


@dataclass(slots=True)
class Resolution:
    """Content decision for a found branch: direction and target."""

    taken: bool
    target: int | None
    used_pht: bool
    used_ctb: bool


class FirstLevelPredictor:
    """BTB1 + BTBP + PHT + CTB + FIT + surprise BHT, wired per the paper."""

    def __init__(self, config: PredictorConfig, btb2: BTB2 | None = None) -> None:
        self.config = config
        self.btb1 = BTB1(rows=config.btb1_rows, ways=config.btb1_ways)
        self.btbp = (
            BTBP(rows=config.btbp_rows, ways=config.btbp_ways)
            if config.btbp_enabled
            else None
        )
        self.pht = PHT(entries=config.pht_entries)
        self.ctb = CTB(entries=config.ctb_entries)
        self.fit = FIT(entries=config.fit_entries)
        self.surprise_bht = SurpriseBHT(entries=config.surprise_bht_entries)
        self.history = PathHistory()
        self.btb2 = btb2
        self.btbp_promotions = 0
        self.surprise_installs = 0

    # -- search / prediction ----------------------------------------------

    def hits_in_row(self, address: int) -> list[RowHit]:
        """Branches found at or after ``address`` within its 32-byte row.

        BTB1 and BTBP are read in parallel; when a branch is duplicated the
        BTB1 copy wins (it is the trained, architected copy).  Results come
        back in ascending address order — the order the search pipeline
        reports predictions.
        """
        found: dict[int, RowHit] = {}
        if self.btbp is not None:
            for entry in self.btbp.search_row(address):
                if entry.address >= address:
                    found[entry.address] = RowHit(
                        entry, PredictionLevel.BTBP, self.btbp.is_mru(entry)
                    )
        for entry in self.btb1.search_row(address):
            if entry.address >= address:
                found[entry.address] = RowHit(
                    entry, PredictionLevel.BTB1, self.btb1.is_mru(entry)
                )
        return [found[key] for key in sorted(found)]

    def first_hit_in_row(self, address: int) -> RowHit | None:
        """The first (lowest-address) hit at or after ``address`` in its row.

        Equal to ``(self.hits_in_row(address) or [None])[0]`` without
        building that list: one scan of the row's BTBP and BTB1 way lists,
        tag-matched to the 32-byte row.  ``<=`` keeps the later of two
        equal addresses and the BTB1 is scanned second, so its copy wins a
        tie, as in :meth:`hits_in_row`.
        """
        row_end = (address | (ROW_BYTES - 1)) + 1
        best = None
        best_address = row_end
        best_ways: list[BTBEntry] = []
        level = PredictionLevel.BTBP
        if self.btbp is not None:
            ways = self.btbp._rows[(address >> 5) % self.btbp.rows]
            for entry in ways:
                if address <= entry.address <= best_address \
                        and entry.address < row_end:
                    best = entry
                    best_address = entry.address
                    best_ways = ways
        ways = self.btb1._rows[(address >> 5) % self.btb1.rows]
        for entry in ways:
            if address <= entry.address <= best_address \
                    and entry.address < row_end:
                best = entry
                best_address = entry.address
                best_ways = ways
                level = PredictionLevel.BTB1
        if best is None:
            return None
        return RowHit(best, level, best_ways[0] is best)

    def resolve_content(self, entry: BTBEntry) -> Resolution:
        """Direction/target decision for a found branch.

        The bimodal counter decides unless the entry's ``use_pht`` bit is set
        and the PHT tag matches; the stored target is used unless ``use_ctb``
        is set and the CTB tag matches (3.1).
        """
        taken = entry.predict_taken
        used_pht = False
        if entry.use_pht:
            pht_direction = self.pht.predict(entry.address, self.history)
            if pht_direction is not None:
                taken = pht_direction
                used_pht = True
        target: int | None = None
        used_ctb = False
        if taken:
            target = entry.target
            if entry.trust_ctb:
                ctb_target = self.ctb.predict(entry.address, self.history)
                if ctb_target is not None:
                    target = ctb_target
                    used_ctb = True
        return Resolution(taken, target, used_pht, used_ctb)

    def use_prediction(self, hit: RowHit | Prediction) -> BTBEntry | None:
        """Apply the move protocol after a structure makes a prediction.

        A BTB1 prediction refreshes MRU.  A BTBP prediction promotes the
        entry into the BTB1; the displaced BTB1 victim goes to the BTBP and
        (per the exclusivity mode) to the BTB2.  Returns the BTB1 victim
        (``None`` when no entry was displaced) so replacement decisions are
        observable.  Only ``hit.entry`` and ``hit.level`` are read, so a
        :class:`~repro.core.events.Prediction` serves as well as the
        ``RowHit`` it was made from.
        """
        if hit.level is PredictionLevel.BTB1:
            self.btb1.touch(hit.entry)
            return None
        assert self.btbp is not None
        self.btbp.remove(hit.entry.address)
        self.btbp_promotions += 1
        victim = self.btb1.install(hit.entry)
        if victim is not None:
            self.btbp.write(victim, WriteSource.BTB1_VICTIM)
            self._writeback_victim(victim)
        return victim

    def _writeback_victim(self, victim: BTBEntry) -> None:
        if self.btb2 is None:
            return
        if self.config.exclusivity is ExclusivityMode.NO_VICTIM_WRITEBACK:
            return
        self.btb2.write_victim(victim.clone())

    # -- installs ----------------------------------------------------------

    def surprise_install(self, record: TraceRecord) -> BTBEntry:
        """Install an ever-taken surprise branch into BTBP (and BTB2)."""
        assert record.taken and record.target is not None
        entry = BTBEntry(
            address=record.address,
            target=record.target,
            kind=record.kind,
            counter=WEAK_TAKEN,
        )
        self.surprise_installs += 1
        if self.btbp is not None:
            self.btbp.write(entry, WriteSource.SURPRISE)
        else:
            # BTBP-less ablation: surprises go straight into the BTB1.
            victim = self.btb1.install(entry)
            if victim is not None:
                self._writeback_victim(victim)
        if self.btb2 is not None:
            self.btb2.write_surprise(entry)
        return entry

    def software_preload(
        self, address: int, target: int, kind: BranchKind = BranchKind.COND
    ) -> BTBEntry:
        """Install branch metadata via a branch preload *instruction*.

        The fourth architected BTBP write source (3.1): software tells the
        predictor about a branch before it executes (e.g. ahead of a known
        cold path).  The entry lands in the BTBP like any other install.
        """
        entry = BTBEntry(address=address, target=target, kind=kind)
        if self.btbp is not None:
            self.btbp.write(entry, WriteSource.PRELOAD_INSTRUCTION)
        else:
            self.btb1.install(entry)
        return entry

    def preload_write(self, entry: BTBEntry) -> None:
        """Accept one BTB2 transfer hit into the first level."""
        if self.btbp is not None:
            self.btbp.write(entry, WriteSource.BTB2_HIT)
        else:
            victim = self.btb1.install(entry)
            if victim is not None:
                self._writeback_victim(victim)

    # -- training -----------------------------------------------------------

    def train(self, entry: BTBEntry, record: TraceRecord) -> None:
        """Update the entry, PHT and CTB with the resolved outcome.

        The PHT trains whenever the entry holds (or has just gained) PHT
        control, so the pattern table warms up before it is first consulted;
        likewise the CTB for changing-target branches.
        """
        entry.update_direction(record.taken)
        if entry.use_pht:
            self.pht.update(entry.address, self.history, record.taken)
        if record.taken and record.target is not None:
            if entry.use_ctb:
                # Grade what the CTB would have predicted for this path
                # before training it, so confidence tracks CTB quality even
                # while it is not being trusted.
                would_predict = self.ctb.peek(entry.address, self.history)
                if would_predict is not None:
                    entry.update_ctb_confidence(would_predict == record.target)
                self.ctb.update(entry.address, self.history, record.target)
            entry.update_target(record.target)

    def record_resolved_branch(self, record: TraceRecord) -> None:
        """Advance path history and the surprise BHT with a resolved branch."""
        self.surprise_bht.update(record.address, record.kind, record.taken)
        self.history.record(record.address, record.taken)

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of every first-level structure and counter.

        The BTB2 is *not* included: it is owned by the preload side and the
        hierarchy only holds a reference; :class:`repro.engine.simulator.Simulator`
        serializes it once at the top level.
        """
        return {
            "btb1": self.btb1.state_dict(),
            "btbp": self.btbp.state_dict() if self.btbp is not None else None,
            "pht": self.pht.state_dict(),
            "ctb": self.ctb.state_dict(),
            "fit": self.fit.state_dict(),
            "surprise_bht": self.surprise_bht.state_dict(),
            "history": self.history.state_dict(),
            "btbp_promotions": self.btbp_promotions,
            "surprise_installs": self.surprise_installs,
        }

    def check_state(self, state: dict) -> None:
        """Raise ``ValueError`` where a table would refuse its snapshot.

        Runs every column table's ``check_state``, so a caller can refuse a
        snapshot before :meth:`load_state_dict` changes anything.
        """
        self.btb1.check_state(state["btb1"])
        if self.btbp is not None:
            self.btbp.check_state(state["btbp"])
        self.pht.check_state(state["pht"])
        self.ctb.check_state(state["ctb"])
        self.surprise_bht.check_state(state["surprise_bht"])

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`."""
        self.btb1.load_state_dict(state["btb1"])
        if self.btbp is not None:
            self.btbp.load_state_dict(state["btbp"])
        self.pht.load_state_dict(state["pht"])
        self.ctb.load_state_dict(state["ctb"])
        self.fit.load_state_dict(state["fit"])
        self.surprise_bht.load_state_dict(state["surprise_bht"])
        self.history.load_state_dict(state["history"])
        self.btbp_promotions = state["btbp_promotions"]
        self.surprise_installs = state["surprise_installs"]

    # -- probes --------------------------------------------------------------

    def probe_level(self, branch_address: int) -> PredictionLevel | None:
        """Where (if anywhere) the first level currently holds this branch."""
        if self.btb1.lookup(branch_address) is not None:
            return PredictionLevel.BTB1
        if self.btbp is not None and self.btbp.lookup(branch_address) is not None:
            return PredictionLevel.BTBP
        return None
