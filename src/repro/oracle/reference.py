"""Reference model of the branch-prediction content semantics.

A second, independent implementation of everything the paper specifies
about prediction *content*: the BTB1/BTBP row search and move protocol
(3.1/3.3), PHT/CTB tagged overrides and their enable heuristics, the FIT
recency table, the surprise BHT and static guess rules, the path-history
folds, and the BTB2 bulk-transfer semantics (semi-exclusive demote +
clone-install).  Timing is deliberately out of scope — the production
:class:`~repro.engine.simulator.Simulator` owns the clocks, and the
differential runner feeds this model the *timing facts* (which branch was
predicted dynamically, which transfer rows completed) through probe hooks
while re-deriving every content decision here.

Design rules, the point of the exercise:

* **slow and obvious beats fast and clever** — LRU is explicit recency
  stamps sorted per query, history folds are recomputed from scratch at
  every index (independently cross-checking the production incremental
  folds), tables are plain dicts;
* **share nothing with the production engine** except
  :mod:`repro.core.config` and the passive vocabulary
  (:class:`~repro.trace.record.TraceRecord`,
  :class:`~repro.isa.opcodes.BranchKind`).  The opcode classification
  rules are restated here from the spec rather than imported;
* **snapshots speak the production schema** — ``state_dict()`` emits the
  exact shape of the production structures' ``state_dict()``, so the
  differential runner can diff the two models with a plain dict walk.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ExclusivityMode, PredictorConfig
from repro.isa.opcodes import BranchKind
from repro.trace.record import TraceRecord

#: 32-byte search rows: "each row covers 32 bytes of instruction space".
ROW_BYTES = 32

#: 2-bit bimodal counter states and the WEAK_TAKEN init of new entries.
STRONG_NOT_TAKEN = 0
WEAK_TAKEN = 2
STRONG_TAKEN = 3
#: Accumulated bimodal mispredicts before delegating direction to the PHT.
PHT_THRESHOLD = 2
#: Accumulated target mispredicts before delegating the target to the CTB.
CTB_THRESHOLD = 1
#: Branch-address tag width of the PHT/CTB.
TAG_BITS = 10
#: Path history depths: 12 directions, 6 (PHT) / 12 (CTB) taken addresses.
PHT_ADDRESS_DEPTH = 6
CTB_ADDRESS_DEPTH = 12

#: BTBP write sources, by their architected names (production
#: ``WriteSource`` values — restated, not imported).
SURPRISE = "surprise"
PRELOAD_INSTRUCTION = "preload_instruction"
BTB2_HIT = "btb2_hit"
BTB1_VICTIM = "btb1_victim"
WRITE_SOURCES = (SURPRISE, PRELOAD_INSTRUCTION, BTB2_HIT, BTB1_VICTIM)

#: Outcome-taxonomy labels (production ``OutcomeKind`` values, restated).
GOOD_DYNAMIC = "good_dynamic"
GOOD_SURPRISE = "good_surprise"
MISPREDICT_TAKEN_NOT_TAKEN = "bad_taken_resolved_not_taken"
MISPREDICT_NOT_TAKEN_TAKEN = "bad_not_taken_resolved_taken"
MISPREDICT_WRONG_TARGET = "bad_wrong_target"
SURPRISE_COMPULSORY = "surprise_compulsory"
SURPRISE_LATENCY = "surprise_latency"
SURPRISE_CAPACITY = "surprise_capacity"


def always_taken(kind: BranchKind) -> bool:
    """Opcode rule: every kind but a conditional branch must be taken."""
    return kind is not BranchKind.COND


def target_changes(kind: BranchKind) -> bool:
    """Opcode rule: returns and indirect branches have changing targets."""
    return kind in (BranchKind.RETURN, BranchKind.INDIRECT)


def static_guess(kind: BranchKind, backward: bool) -> bool:
    """Opcode static direction rule: always-taken kinds, else BTFNT."""
    return True if always_taken(kind) else backward


def _row_start(address: int) -> int:
    return address & ~(ROW_BYTES - 1)


@dataclass
class RefEntry:
    """One branch's prediction metadata (the BTB entry content)."""

    address: int
    target: int
    kind: BranchKind
    counter: int = WEAK_TAKEN
    use_pht: bool = False
    use_ctb: bool = False
    ctb_confidence: int = 2
    bimodal_misses: int = 0
    target_misses: int = 0

    @property
    def predict_taken(self) -> bool:
        return self.counter >= WEAK_TAKEN

    @property
    def trust_ctb(self) -> bool:
        return self.use_ctb and self.ctb_confidence >= 2

    def train_direction(self, taken: bool) -> None:
        predicted = self.predict_taken
        if taken:
            self.counter = min(STRONG_TAKEN, self.counter + 1)
        else:
            self.counter = max(STRONG_NOT_TAKEN, self.counter - 1)
        if predicted != taken:
            self.bimodal_misses += 1
            if self.bimodal_misses >= PHT_THRESHOLD:
                self.use_pht = True

    def train_target(self, target: int) -> None:
        if target != self.target:
            self.target_misses += 1
            if target_changes(self.kind) or self.target_misses >= CTB_THRESHOLD:
                self.use_ctb = True
            self.target = target
        else:
            self.target_misses = 0

    def bump_ctb_confidence(self, ctb_correct: bool) -> None:
        if ctb_correct:
            self.ctb_confidence = min(3, self.ctb_confidence + 1)
        else:
            self.ctb_confidence = max(0, self.ctb_confidence - 1)

    def clone(self) -> "RefEntry":
        return RefEntry(
            address=self.address, target=self.target, kind=self.kind,
            counter=self.counter, use_pht=self.use_pht, use_ctb=self.use_ctb,
            ctb_confidence=self.ctb_confidence,
            bimodal_misses=self.bimodal_misses,
            target_misses=self.target_misses,
        )

    def state_dict(self) -> list:
        """Production :class:`~repro.btb.entry.BTBEntry` snapshot row."""
        return [self.address, self.target, self.kind.name, self.counter,
                self.use_pht, self.use_ctb, self.ctb_confidence,
                self.bimodal_misses, self.target_misses]


class _Slot:
    """One occupied BTB way: the entry plus an explicit recency stamp."""

    __slots__ = ("entry", "stamp")

    def __init__(self, entry: RefEntry, stamp: int) -> None:
        self.entry = entry
        self.stamp = stamp


class RefBTB:
    """Set-associative BTB with recency modeled as explicit stamps.

    Most-recent = largest stamp, victim = smallest stamp; demotion assigns
    a fresh below-minimum stamp.  Equivalent to the production MRU-first
    way ordering, but the equivalence is *derived per query* by sorting —
    nothing here depends on maintaining a list in a clever order.
    """

    def __init__(self, rows: int, ways: int) -> None:
        self.rows = rows
        self.ways = ways
        self._rows: list[list[_Slot]] = [[] for _ in range(rows)]
        self._mru_stamp = 0
        self._lru_stamp = 0
        self.installs = 0
        self.evictions = 0

    def _row(self, address: int) -> list[_Slot]:
        return self._rows[(address >> 5) % self.rows]

    def _next_mru(self) -> int:
        self._mru_stamp += 1
        return self._mru_stamp

    def _next_lru(self) -> int:
        self._lru_stamp -= 1
        return self._lru_stamp

    # -- reads ------------------------------------------------------------

    def search_row(self, address: int) -> list[RefEntry]:
        """Tag-matching entries of the row, ascending branch address."""
        start = _row_start(address)
        hits = [
            slot.entry
            for slot in self._row(address)
            if _row_start(slot.entry.address) == start
        ]
        return sorted(hits, key=lambda entry: entry.address)

    def lookup(self, branch_address: int) -> RefEntry | None:
        for slot in self._row(branch_address):
            if slot.entry.address == branch_address:
                return slot.entry
        return None

    def is_mru(self, entry: RefEntry) -> bool:
        slots = self._row(entry.address)
        return bool(slots) and max(slots, key=lambda s: s.stamp).entry is entry

    def mru_first(self, address: int) -> list[RefEntry]:
        """The row's entries in replacement order, most recent first."""
        slots = sorted(self._row(address), key=lambda s: s.stamp, reverse=True)
        return [slot.entry for slot in slots]

    # -- writes -----------------------------------------------------------

    def install(self, entry: RefEntry) -> RefEntry | None:
        """Insert as MRU; same-address replaces in place (never a victim)."""
        slots = self._row(entry.address)
        for slot in slots:
            if slot.entry.address == entry.address:
                slot.entry = entry
                slot.stamp = self._next_mru()
                return None
        self.installs += 1
        victim = None
        if len(slots) >= self.ways:
            oldest = min(slots, key=lambda s: s.stamp)
            slots.remove(oldest)
            victim = oldest.entry
            self.evictions += 1
        slots.append(_Slot(entry, self._next_mru()))
        return victim

    def touch(self, entry: RefEntry) -> None:
        for slot in self._row(entry.address):
            if slot.entry is entry:
                slot.stamp = self._next_mru()
                return

    def demote(self, entry: RefEntry) -> None:
        for slot in self._row(entry.address):
            if slot.entry is entry:
                slot.stamp = self._next_lru()
                return

    def remove(self, branch_address: int) -> RefEntry | None:
        slots = self._row(branch_address)
        for slot in slots:
            if slot.entry.address == branch_address:
                slots.remove(slot)
                return slot.entry
        return None

    def __len__(self) -> int:
        return sum(len(slots) for slots in self._rows)

    def state_dict(self) -> dict:
        """Production :class:`~repro.btb.storage.BranchTargetBuffer` schema."""
        rows = []
        for index, slots in enumerate(self._rows):
            if slots:
                ordered = sorted(slots, key=lambda s: s.stamp, reverse=True)
                rows.append(
                    [index, [slot.entry.state_dict() for slot in ordered]]
                )
        return {
            "rows": rows,
            "installs": self.installs,
            "evictions": self.evictions,
        }


class RefBTBP(RefBTB):
    """Preload table: a :class:`RefBTB` with per-source write accounting."""

    def __init__(self, rows: int, ways: int) -> None:
        super().__init__(rows, ways)
        self.writes_by_source = {source: 0 for source in WRITE_SOURCES}

    def write(self, entry: RefEntry, source: str) -> RefEntry | None:
        self.writes_by_source[source] += 1
        return self.install(entry)

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["writes_by_source"] = dict(self.writes_by_source)
        return state


class RefBTB2(RefBTB):
    """Second level: victim/surprise write accounting on a :class:`RefBTB`."""

    def __init__(self, rows: int, ways: int) -> None:
        super().__init__(rows, ways)
        self.transfer_hits = 0
        self.victim_writes = 0
        self.surprise_writes = 0

    def write_victim(self, entry: RefEntry) -> RefEntry | None:
        self.victim_writes += 1
        return self.install(entry)

    def write_surprise(self, entry: RefEntry) -> RefEntry | None:
        self.surprise_writes += 1
        return self.install(entry.clone())

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["transfer_hits"] = self.transfer_hits
        state["victim_writes"] = self.victim_writes
        state["surprise_writes"] = self.surprise_writes
        return state


def _tag(branch_address: int) -> int:
    return (branch_address >> 1) & ((1 << TAG_BITS) - 1)


class RefPHT:
    """Direct-mapped tagged direction table as a plain dict."""

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self._table: dict[int, list[int]] = {}  # index -> [tag, counter]
        self.tag_hits = 0
        self.tag_misses = 0

    def predict(self, branch_address: int, index: int) -> bool | None:
        slot = self._table.get(index)
        if slot is None or slot[0] != _tag(branch_address):
            self.tag_misses += 1
            return None
        self.tag_hits += 1
        return slot[1] >= WEAK_TAKEN

    def update(self, branch_address: int, index: int, taken: bool) -> None:
        tag = _tag(branch_address)
        slot = self._table.get(index)
        if slot is None or slot[0] != tag:
            self._table[index] = [tag, WEAK_TAKEN if taken else WEAK_TAKEN - 1]
            return
        if taken:
            slot[1] = min(STRONG_TAKEN, slot[1] + 1)
        else:
            slot[1] = max(STRONG_NOT_TAKEN, slot[1] - 1)

    def state_dict(self) -> dict:
        return {
            "table": [
                [index, *self._table[index]] for index in sorted(self._table)
            ],
            "tag_hits": self.tag_hits,
            "tag_misses": self.tag_misses,
        }


class RefCTB:
    """Direct-mapped tagged target table as a plain dict."""

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self._table: dict[int, list[int]] = {}  # index -> [tag, target]
        self.tag_hits = 0
        self.tag_misses = 0

    def predict(self, branch_address: int, index: int) -> int | None:
        slot = self._table.get(index)
        if slot is None or slot[0] != _tag(branch_address):
            self.tag_misses += 1
            return None
        self.tag_hits += 1
        return slot[1]

    def peek(self, branch_address: int, index: int) -> int | None:
        slot = self._table.get(index)
        if slot is None or slot[0] != _tag(branch_address):
            return None
        return slot[1]

    def update(self, branch_address: int, index: int, target: int) -> None:
        self._table[index] = [_tag(branch_address), target]

    def state_dict(self) -> dict:
        return {
            "table": [
                [index, *self._table[index]] for index in sorted(self._table)
            ],
            "tag_hits": self.tag_hits,
            "tag_misses": self.tag_misses,
        }


class RefFIT:
    """Fully-associative recency table as an explicit LRU-to-MRU list."""

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self._order: list[list[int]] = []  # [address, hint], LRU first
        self.hits = 0
        self.misses = 0

    def _find(self, branch_address: int) -> list[int] | None:
        for pair in self._order:
            if pair[0] == branch_address:
                return pair
        return None

    def probe(self, branch_address: int) -> bool:
        pair = self._find(branch_address)
        if pair is None:
            self.misses += 1
            return False
        self._order.remove(pair)
        self._order.append(pair)
        self.hits += 1
        return True

    def train(self, branch_address: int, hint: int) -> None:
        pair = self._find(branch_address)
        if pair is not None:
            self._order.remove(pair)
        self._order.append([branch_address, hint])
        while len(self._order) > self.entries:
            self._order.pop(0)

    def state_dict(self) -> dict:
        return {
            "table": [list(pair) for pair in self._order],
            "hits": self.hits,
            "misses": self.misses,
        }


class RefSurpriseBHT:
    """Tagless one-bit direction history as a sparse dict."""

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self._bits: dict[int, bool] = {}
        self.guesses = 0
        self.correct_guesses = 0

    def _index(self, address: int) -> int:
        return (address >> 1) % self.entries

    def guess(self, address: int, kind: BranchKind, backward: bool) -> bool:
        self.guesses += 1
        if always_taken(kind):
            return True
        bit = self._bits.get(self._index(address))
        if bit is None:
            return static_guess(kind, backward)
        return bit

    def update(self, address: int, kind: BranchKind, taken: bool) -> None:
        if kind is BranchKind.COND:
            self._bits[self._index(address)] = taken

    def record_outcome(self, guessed: bool, taken: bool) -> None:
        if guessed == taken:
            self.correct_guesses += 1

    def state_dict(self) -> dict:
        return {
            "bits": [[index, self._bits[index]]
                     for index in sorted(self._bits)],
            "guesses": self.guesses,
            "correct_guesses": self.correct_guesses,
        }


class RefHistory:
    """Path history with from-scratch fold computation at every index."""

    def __init__(self) -> None:
        self.directions: list[bool] = []        # last 12, oldest first
        self.taken_addresses: list[int] = []    # last 12, oldest first

    def record(self, branch_address: int, taken: bool) -> None:
        self.directions = (self.directions + [taken])[-CTB_ADDRESS_DEPTH:]
        if taken:
            self.taken_addresses = (
                self.taken_addresses + [branch_address]
            )[-CTB_ADDRESS_DEPTH:]

    def _fold(self, depth: int) -> int:
        folded = 0
        for address in self.taken_addresses[-depth:]:
            folded = ((folded << 3) | (folded >> 13)) & 0xFFFF
            folded ^= (address >> 1) & 0xFFFF
        return folded

    def _direction_bits(self) -> int:
        bits = 0
        for taken in self.directions:
            bits = (bits << 1) | int(taken)
        return bits & 0xFFF

    def pht_index(self, table_entries: int) -> int:
        return (self._direction_bits() ^ self._fold(PHT_ADDRESS_DEPTH)) \
            % table_entries

    def ctb_index(self, table_entries: int) -> int:
        return self._fold(CTB_ADDRESS_DEPTH) % table_entries

    def state_dict(self) -> dict:
        return {
            "directions": list(self.directions),
            "taken_addresses": list(self.taken_addresses),
        }


@dataclass(frozen=True)
class RefResolution:
    """Content decision for a found branch (direction and target)."""

    taken: bool
    target: int | None
    used_pht: bool
    used_ctb: bool


class ReferencePredictor:
    """The full first+second-level content model, wired per the paper.

    The differential runner drives this through the same sequence of
    semantic events the production engine executes (row probe & predict,
    move protocol, surprise install, training, transfer-row delivery) and
    compares outputs after each.  Levels are named by plain strings
    (``"BTB1"`` / ``"BTBP"``) to keep the model free of production types.
    """

    def __init__(self, config: PredictorConfig) -> None:
        self.config = config
        self.btb1 = RefBTB(config.btb1_rows, config.btb1_ways)
        self.btbp = (
            RefBTBP(config.btbp_rows, config.btbp_ways)
            if config.btbp_enabled else None
        )
        self.btb2 = (
            RefBTB2(config.btb2_rows, config.btb2_ways)
            if config.btb2_enabled else None
        )
        self.pht = RefPHT(config.pht_entries)
        self.ctb = RefCTB(config.ctb_entries)
        self.fit = RefFIT(config.fit_entries)
        self.surprise_bht = RefSurpriseBHT(config.surprise_bht_entries)
        self.history = RefHistory()
        self.btbp_promotions = 0
        self.surprise_installs = 0
        #: Last predicted-taken branch address (the single-branch-loop /
        #: FIT re-index gate of the search pipeline; reset on restarts).
        self.last_taken_address: int | None = None
        #: Branch addresses resolved at least once (surprise taxonomy).
        self.seen: set[int] = set()
        self.outcomes: dict[str, int] = {}
        self.branches = 0
        self.taken_branches = 0

    # -- search-side semantics --------------------------------------------

    def hits_in_row(self, address: int) -> list[tuple[RefEntry, str, bool]]:
        """``(entry, level, from_mru)`` at/after ``address`` in its row.

        BTB1 and BTBP are read in parallel; a duplicated branch is served
        by its BTB1 copy.  Ascending address order.
        """
        found: dict[int, tuple[RefEntry, str, bool]] = {}
        if self.btbp is not None:
            for entry in self.btbp.search_row(address):
                if entry.address >= address:
                    found[entry.address] = (
                        entry, "BTBP", self.btbp.is_mru(entry)
                    )
        for entry in self.btb1.search_row(address):
            if entry.address >= address:
                found[entry.address] = (entry, "BTB1", self.btb1.is_mru(entry))
        return [found[key] for key in sorted(found)]

    def resolve(self, entry: RefEntry) -> RefResolution:
        """Direction/target decision, with PHT/CTB consultation stats."""
        taken = entry.predict_taken
        used_pht = False
        if entry.use_pht:
            pht_direction = self.pht.predict(
                entry.address, self.history.pht_index(self.pht.entries)
            )
            if pht_direction is not None:
                taken = pht_direction
                used_pht = True
        target: int | None = None
        used_ctb = False
        if taken:
            target = entry.target
            if entry.trust_ctb:
                ctb_target = self.ctb.predict(
                    entry.address, self.history.ctb_index(self.ctb.entries)
                )
                if ctb_target is not None:
                    target = ctb_target
                    used_ctb = True
        return RefResolution(taken, target, used_pht, used_ctb)

    def apply_prediction(self, entry: RefEntry, resolution: RefResolution) -> None:
        """Search-pipeline side effects of emitting one prediction.

        The FIT is probed for taken predictions outside a single-branch
        loop (the re-index cost lookup), then trained with the next search
        row for every predicted-taken branch.
        """
        if resolution.taken and self.last_taken_address != entry.address:
            self.fit.probe(entry.address)
        if resolution.taken and resolution.target is not None:
            self.last_taken_address = entry.address
            self.fit.train(
                entry.address,
                (resolution.target >> 5) % self.config.btb1_rows,
            )
        else:
            self.last_taken_address = None

    def on_search_restart(self) -> None:
        """A pipeline restart clears the searcher's taken-branch context."""
        self.last_taken_address = None

    # -- move protocol ------------------------------------------------------

    def use_prediction(self, entry: RefEntry, level: str) -> RefEntry | None:
        """The 3.1/3.3 move protocol; returns the BTB1 victim, if any."""
        if level == "BTB1":
            self.btb1.touch(entry)
            return None
        assert self.btbp is not None
        self.btbp.remove(entry.address)
        self.btbp_promotions += 1
        victim = self.btb1.install(entry)
        if victim is not None:
            self.btbp.write(victim, BTB1_VICTIM)
            self._writeback_victim(victim)
        return victim

    def _writeback_victim(self, victim: RefEntry) -> None:
        if self.btb2 is None:
            return
        if self.config.exclusivity is ExclusivityMode.NO_VICTIM_WRITEBACK:
            return
        self.btb2.write_victim(victim.clone())

    def surprise_install(self, record: TraceRecord) -> RefEntry:
        entry = RefEntry(
            address=record.address, target=record.target, kind=record.kind,
            counter=WEAK_TAKEN,
        )
        self.surprise_installs += 1
        if self.btbp is not None:
            self.btbp.write(entry, SURPRISE)
        else:
            victim = self.btb1.install(entry)
            if victim is not None:
                self._writeback_victim(victim)
        if self.btb2 is not None:
            self.btb2.write_surprise(entry)
        return entry

    def preload_write(self, entry: RefEntry) -> None:
        if self.btbp is not None:
            self.btbp.write(entry, BTB2_HIT)
        else:
            victim = self.btb1.install(entry)
            if victim is not None:
                self._writeback_victim(victim)

    def deliver_row(self, row_address: int) -> list[int]:
        """One bulk-transfer row completion: demote + clone-install hits.

        Returns the delivered branch addresses (ascending), for comparison
        against the production transfer engine.
        """
        assert self.btb2 is not None
        hits = self.btb2.search_row(row_address)
        for entry in hits:
            if self.config.exclusivity is ExclusivityMode.INCLUSIVE:
                self.btb2.touch(entry)
            else:
                self.btb2.demote(entry)
            self.btb2.transfer_hits += 1
            self.preload_write(entry.clone())
        return [entry.address for entry in hits]

    # -- resolution-side semantics -------------------------------------------

    def train(self, entry: RefEntry, record: TraceRecord) -> None:
        entry.train_direction(record.taken)
        if entry.use_pht:
            self.pht.update(
                entry.address, self.history.pht_index(self.pht.entries),
                record.taken,
            )
        if record.taken and record.target is not None:
            if entry.use_ctb:
                index = self.history.ctb_index(self.ctb.entries)
                would_predict = self.ctb.peek(entry.address, index)
                if would_predict is not None:
                    entry.bump_ctb_confidence(would_predict == record.target)
                self.ctb.update(entry.address, index, record.target)
            entry.train_target(record.target)

    def train_resident(self, record: TraceRecord) -> None:
        entry = self.btb1.lookup(record.address)
        if entry is None and self.btbp is not None:
            entry = self.btbp.lookup(record.address)
        if entry is not None:
            self.train(entry, record)

    def record_resolved(self, record: TraceRecord) -> None:
        self.surprise_bht.update(record.address, record.kind, record.taken)
        self.history.record(record.address, record.taken)

    def guess_surprise(self, record: TraceRecord) -> bool:
        """Static/BHT direction guess for an unpredicted branch."""
        backward = (
            record.target is not None and record.target <= record.address
        )
        guess = self.surprise_bht.guess(record.address, record.kind, backward)
        self.surprise_bht.record_outcome(guess, record.taken)
        return guess

    def probe_level(self, branch_address: int) -> str | None:
        if self.btb1.lookup(branch_address) is not None:
            return "BTB1"
        if self.btbp is not None and self.btbp.lookup(branch_address) is not None:
            return "BTBP"
        return None

    def classify_surprise(
        self, seen_before: bool, resident: str | None, late_predicted: bool
    ) -> str:
        """Compulsory / latency / capacity taxonomy of section 5.1."""
        if not seen_before:
            return SURPRISE_COMPULSORY
        if late_predicted or resident is not None:
            return SURPRISE_LATENCY
        return SURPRISE_CAPACITY

    def count_branch(self, record: TraceRecord, outcome: str) -> None:
        """Fold one resolved branch into the model's own counters."""
        self.branches += 1
        if record.taken:
            self.taken_branches += 1
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        self.seen.add(record.address)

    # -- snapshots ------------------------------------------------------------

    def state_dict(self) -> dict:
        """Production-schema snapshot of every content structure.

        Matches ``{"hierarchy": sim.hierarchy.state_dict(),
        "btb2": sim.btb2.state_dict()}`` of a production simulator whose
        content evolved identically.
        """
        return {
            "hierarchy": {
                "btb1": self.btb1.state_dict(),
                "btbp": self.btbp.state_dict() if self.btbp is not None else None,
                "pht": self.pht.state_dict(),
                "ctb": self.ctb.state_dict(),
                "fit": self.fit.state_dict(),
                "surprise_bht": self.surprise_bht.state_dict(),
                "history": self.history.state_dict(),
                "btbp_promotions": self.btbp_promotions,
                "surprise_installs": self.surprise_installs,
            },
            "btb2": self.btb2.state_dict() if self.btb2 is not None else None,
        }
