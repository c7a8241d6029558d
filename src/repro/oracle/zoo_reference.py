"""Reference models of the predictor zoo, for the lockstep oracle.

Every zoo registry entry gets an *independently written* reference model
here: same specified behavior, deliberately different data structures.
The production engine keeps MRU-ordered row lists in its
:class:`~repro.predictors.base.SetAssociativeTable`, the references keep a
flat dict with explicit last-use timestamps; the production TAGE folds
history with integer shift arithmetic, the reference folds a bit *list*
chunk by chunk.  A bug in either representation shows up as a divergence
instead of being faithfully mirrored.

The paper stack's reference model is
:class:`~repro.oracle.reference.ReferencePredictor`;
:mod:`repro.oracle.differential` steps each model in lockstep with the
production predictor of the same registry name.
"""

from __future__ import annotations

from repro.core.config import PredictorConfig
from repro.core.events import OutcomeKind
from repro.engine.params import TimingParams
from repro.isa.opcodes import BranchKind, static_guess
from repro.predictors.bullseye import (
    H2P_MIN_EXECS,
    H2P_MISS_DENOMINATOR,
    H2P_MISS_NUMERATOR,
    LOCAL_HISTORY_BITS,
    SPECIALIST_CAPACITY,
)
from repro.predictors.ldbp import TRIP_CONFIDENCE
from repro.predictors.tage import (
    BIMODAL_ENTRIES,
    GHIST_LENGTHS,
    MAX_HISTORY,
    TAG_BITS,
    TAGGED_ENTRIES,
)
from repro.trace.record import TraceRecord


class _ReferenceBit:
    """Flat-dict BIT with explicit timestamps (vs production's MRU lists).

    Same contract as :class:`SetAssociativeTable` — bounded rows, LRU
    victim, most-recent touch wins — realized as one ``dict`` keyed by
    address plus a monotonically increasing use stamp per entry.
    """

    def __init__(self, rows: int, ways: int, shift: int = 1) -> None:
        self.rows = rows
        self.ways = ways
        self.shift = shift
        self._entries: dict[int, dict] = {}
        self._stamps: dict[int, int] = {}
        self._clock = 0

    def _row(self, address: int) -> int:
        return (address >> self.shift) % self.rows

    def lookup(self, address: int) -> dict | None:
        return self._entries.get(address)

    def touch(self, address: int) -> None:
        if address in self._stamps:
            self._clock += 1
            self._stamps[address] = self._clock

    def install(self, entry: dict) -> dict | None:
        address = entry["address"]
        row = self._row(address)
        victim = None
        resident = [other for other in self._entries
                    if self._row(other) == row]
        if len(resident) >= self.ways:
            oldest = min(resident, key=lambda other: self._stamps[other])
            victim = self._entries.pop(oldest)
            del self._stamps[oldest]
        self._clock += 1
        self._entries[address] = entry
        self._stamps[address] = self._clock
        return victim


class _ZooReference:
    """Independent restatement of the zoo sequence engine.

    Subclasses supply :meth:`_direction` (predicted taken for a resident
    conditional) and :meth:`_learn` (post-resolution update); the base
    carries the BIT, the Figure 4 classification, and the clock — each
    written from the specification, not from the production source.
    """

    def __init__(self, config: PredictorConfig, timing: TimingParams) -> None:
        self.timing = timing
        self.bit = _ReferenceBit(config.btb1_rows, config.btb1_ways)
        self.seen: set[int] = set()
        self.expected: int | None = None
        self.started = False
        self.cycle = 0.0
        self.counters = {
            "instructions": 0, "branches": 0, "taken": 0,
            "context_switches": 0,
            "outcomes": {kind.value: 0 for kind in OutcomeKind},
        }
        self.taken_extra = max(
            0.0, timing.taken_branch_decode_cycles - timing.base_decode_cycles)

    # subclass hooks ---------------------------------------------------------

    def _direction(self, record: TraceRecord, entry: dict) -> bool:
        raise NotImplementedError

    def _learn(self, record: TraceRecord, entry: dict) -> None:
        raise NotImplementedError

    def _fresh_entry(self, address: int) -> dict:
        return {"address": address, "target": None}

    def _evicted(self, victim: dict) -> None:
        pass

    # engine -----------------------------------------------------------------

    def step(self, record: TraceRecord):
        """Consume one record; return the branch tuple or ``None``."""
        if self.started and record.address != self.expected:
            self.counters["context_switches"] += 1
        self.started = True
        self.expected = record.next_address
        self.counters["instructions"] += 1
        self.cycle += self.timing.base_decode_cycles
        if record.kind is None:
            return None
        return self._branch(record)

    def _branch(self, record: TraceRecord):
        self.counters["branches"] += 1
        if record.taken:
            self.counters["taken"] += 1
            self.cycle += self.taken_extra
        entry = self.bit.lookup(record.address)
        if entry is None:
            predicted = (None, None)
            kind, penalty = self._surprise(record)
        else:
            if record.kind.always_taken:
                taken = True
            else:
                taken = self._direction(record, entry)
            target = entry["target"] if taken else None
            predicted = (taken, target)
            kind, penalty = self._dynamic(record, taken, target)
        self.counters["outcomes"][kind.value] += 1
        self.cycle += penalty
        self._train(record)
        self.seen.add(record.address)
        return (*predicted, kind.value, penalty)

    def _surprise(self, record: TraceRecord):
        backward = record.target is not None and record.target <= record.address
        guess = static_guess(record.kind, backward)
        if not guess and not record.taken:
            return OutcomeKind.GOOD_SURPRISE, 0.0
        kind = (OutcomeKind.SURPRISE_CAPACITY if record.address in self.seen
                else OutcomeKind.SURPRISE_COMPULSORY)
        if guess and record.taken and not record.kind.target_changes:
            return kind, self.timing.surprise_taken_decode_penalty
        return kind, self.timing.surprise_resolution_penalty

    def _dynamic(self, record: TraceRecord, taken: bool, target: int | None):
        if taken and record.taken:
            if target is not None and target == record.target:
                return OutcomeKind.GOOD_DYNAMIC, 0.0
            return (OutcomeKind.MISPREDICT_WRONG_TARGET,
                    self.timing.mispredict_penalty)
        if taken:
            return (OutcomeKind.MISPREDICT_TAKEN_NOT_TAKEN,
                    self.timing.mispredict_penalty)
        if record.taken:
            return (OutcomeKind.MISPREDICT_NOT_TAKEN_TAKEN,
                    self.timing.mispredict_penalty)
        return OutcomeKind.GOOD_DYNAMIC, 0.0

    def _train(self, record: TraceRecord) -> None:
        entry = self.bit.lookup(record.address)
        if entry is None:
            entry = self._fresh_entry(record.address)
            victim = self.bit.install(entry)
            if victim is not None:
                self._evicted(victim)
        else:
            self.bit.touch(record.address)
        if record.taken:
            entry["target"] = record.target
        self._learn(record, entry)

    def final_counters(self) -> dict:
        return self.counters


class _TageReference(_ZooReference):
    """TAGE restated with a bit-list history and chunked list folding."""

    def __init__(self, config: PredictorConfig, timing: TimingParams) -> None:
        super().__init__(config, timing)
        self.bimodal = {}
        self.tables: list[dict[int, dict]] = [{} for _ in GHIST_LENGTHS]
        #: Outcome history as a list of bits, newest first.
        self.history: list[int] = []

    def _fold(self, length: int, bits: int) -> int:
        window = self.history[:length]
        folded = 0
        for start in range(0, len(window), bits):
            chunk = 0
            for offset, bit in enumerate(window[start:start + bits]):
                chunk |= bit << offset
            folded ^= chunk
        return folded

    def _index(self, address: int, table: int) -> int:
        length = GHIST_LENGTHS[table]
        return ((address >> 1) ^ self._fold(length, 10)
                ^ (table * 0x2545)) % TAGGED_ENTRIES

    def _tag(self, address: int, table: int) -> int:
        length = GHIST_LENGTHS[table]
        return ((address >> 11) ^ self._fold(length, TAG_BITS)
                ^ (self._fold(length, TAG_BITS - 1) << 1)) % (1 << TAG_BITS)

    def _match(self, address: int):
        """(taken, provider, alt_taken) — longest tag match provides."""
        hits = []
        for table in range(len(GHIST_LENGTHS)):
            slot = self.tables[table].get(self._index(address, table))
            if slot is not None and slot["tag"] == self._tag(address, table):
                hits.append((table, slot))
        bimodal_taken = self.bimodal.get(
            (address >> 1) % BIMODAL_ENTRIES, 1) >= 2
        if not hits:
            return bimodal_taken, None, bimodal_taken
        hits.sort(key=lambda hit: hit[0])
        provider = hits[-1]
        alt_taken = (hits[-2][1]["ctr"] >= 4 if len(hits) > 1
                     else bimodal_taken)
        return provider[1]["ctr"] >= 4, provider, alt_taken

    def _direction(self, record: TraceRecord, entry: dict) -> bool:
        taken, _, _ = self._match(record.address)
        return taken

    def _learn(self, record: TraceRecord, entry: dict) -> None:
        if record.kind is BranchKind.COND:
            self._learn_direction(record.address, record.taken)
        self.history.insert(0, int(record.taken))
        del self.history[MAX_HISTORY:]

    def _learn_direction(self, address: int, taken: bool) -> None:
        predicted, provider, alt_taken = self._match(address)
        if provider is not None:
            slot = provider[1]
            slot["ctr"] = (min(7, slot["ctr"] + 1) if taken
                           else max(0, slot["ctr"] - 1))
            if predicted != alt_taken:
                slot["useful"] = (min(3, slot["useful"] + 1)
                                  if predicted == taken
                                  else max(0, slot["useful"] - 1))
        else:
            index = (address >> 1) % BIMODAL_ENTRIES
            counter = self.bimodal.get(index, 1)
            self.bimodal[index] = (min(3, counter + 1) if taken
                                   else max(0, counter - 1))
        if predicted != taken:
            start = provider[0] + 1 if provider is not None else 0
            self._allocate(address, taken, start)

    def _allocate(self, address: int, taken: bool, start: int) -> None:
        for table in range(start, len(GHIST_LENGTHS)):
            index = self._index(address, table)
            slot = self.tables[table].get(index)
            if slot is None or slot["useful"] == 0:
                self.tables[table][index] = {
                    "tag": self._tag(address, table),
                    "ctr": 4 if taken else 3, "useful": 0}
                return
        for table in range(start, len(GHIST_LENGTHS)):
            slot = self.tables[table][self._index(address, table)]
            slot["useful"] = max(0, slot["useful"] - 1)


class _LdbpReference(_ZooReference):
    """LDBP restated: trip detector fields live in the BIT entry dict."""

    def _fresh_entry(self, address: int) -> dict:
        return {"address": address, "target": None, "counter": 1,
                "run": 0, "trip": None, "confidence": 0}

    def _direction(self, record: TraceRecord, entry: dict) -> bool:
        if (entry["trip"] is not None
                and entry["confidence"] >= TRIP_CONFIDENCE):
            return entry["run"] < entry["trip"]
        return entry["counter"] >= 2

    def _learn(self, record: TraceRecord, entry: dict) -> None:
        if record.kind is not BranchKind.COND:
            return
        entry["counter"] = (min(3, entry["counter"] + 1) if record.taken
                            else max(0, entry["counter"] - 1))
        if record.taken:
            entry["run"] += 1
            return
        if entry["run"] == entry["trip"]:
            entry["confidence"] = min(3, entry["confidence"] + 1)
        else:
            entry["trip"] = entry["run"]
            entry["confidence"] = 0
        entry["run"] = 0


class _BullseyeReference(_ZooReference):
    """Bullseye restated: specialist file as a timestamp dict, not a list."""

    def __init__(self, config: PredictorConfig, timing: TimingParams) -> None:
        super().__init__(config, timing)
        #: Promoted addresses -> last-train stamp (vs production's MRU list).
        self.specialists: dict[int, int] = {}
        self._stamp = 0

    def _fresh_entry(self, address: int) -> dict:
        return {"address": address, "target": None, "counter": 1,
                "execs": 0, "misses": 0, "history": 0, "patterns": None}

    def _direction(self, record: TraceRecord, entry: dict) -> bool:
        taken = entry["counter"] >= 2
        if entry["patterns"] is not None:
            pattern = entry["patterns"].get(entry["history"])
            if pattern is not None:
                taken = pattern >= 2
        return taken

    def _learn(self, record: TraceRecord, entry: dict) -> None:
        if record.kind is not BranchKind.COND:
            return
        base_taken = entry["counter"] >= 2
        entry["execs"] += 1
        if base_taken != record.taken:
            entry["misses"] += 1
        entry["counter"] = (min(3, entry["counter"] + 1) if record.taken
                            else max(0, entry["counter"] - 1))
        if entry["patterns"] is not None:
            pattern = entry["patterns"].get(entry["history"], 1)
            entry["patterns"][entry["history"]] = (
                min(3, pattern + 1) if record.taken else max(0, pattern - 1))
            if entry["address"] in self.specialists:
                self._stamp += 1
                self.specialists[entry["address"]] = self._stamp
        elif (entry["execs"] >= H2P_MIN_EXECS
              and entry["misses"] * H2P_MISS_DENOMINATOR
              >= entry["execs"] * H2P_MISS_NUMERATOR):
            self._promote(entry)
        entry["history"] = (((entry["history"] << 1) | int(record.taken))
                            & ((1 << LOCAL_HISTORY_BITS) - 1))

    def _promote(self, entry: dict) -> None:
        self.specialists.pop(entry["address"], None)
        while len(self.specialists) >= SPECIALIST_CAPACITY:
            oldest = min(self.specialists, key=self.specialists.get)
            del self.specialists[oldest]
            victim = self.bit.lookup(oldest)
            if victim is not None:
                victim["patterns"] = None
        entry["patterns"] = {}
        self._stamp += 1
        self.specialists[entry["address"]] = self._stamp

    def _evicted(self, victim: dict) -> None:
        if victim.get("patterns") is not None:
            self.specialists.pop(victim["address"], None)


#: Reference-model factory per zoo registry name (the paper stack's is
#: :class:`~repro.oracle.reference.ReferencePredictor`).
ZOO_REFERENCES = {
    "tage": _TageReference,
    "ldbp": _LdbpReference,
    "bullseye": _BullseyeReference,
}
