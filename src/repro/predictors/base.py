"""The shared "zoo" sequence engine behind the non-paper predictors.

The formal contract, :class:`~repro.engine.predictor.Predictor`, lives in
``repro.engine`` because the paper's two-level bulk-preload stack
(:class:`~repro.engine.simulator.Simulator`) implements it directly; it is
re-exported here and from ``repro.predictors``.  This module holds
:class:`ZooPredictor`, the shared sequence engine for the other
implementations (TAGE-like, LDBP-style, Bullseye-style).  It owns cycle
accounting, the Figure 4 outcome taxonomy, surprise classification
through :func:`~repro.isa.opcodes.static_guess`, context-switch
detection, a bounded set-associative Branch Identification Table (BIT),
and a counter-conservation self-check; subclasses only contribute the
direction-prediction state machine.

Relabel invariance is a hard contract: every index, tag, and history fold
computed by a zoo predictor uses only address bits below
:data:`INDEX_BIT_LIMIT`, so a whole-trace relabel by a multiple of
``repro.oracle.metamorphic.RELABEL_GRANULE`` cannot change behavior.  The
per-predictor metamorphic check in ``repro.predictors.conformance``
asserts this for every registry entry.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.config import PredictorConfig, ZEC12_CONFIG_2
from repro.core.events import OutcomeKind
from repro.engine.params import DEFAULT_TIMING, TimingParams
from repro.engine.predictor import Predictor
from repro.engine.simulator import SimulationResult
from repro.isa.opcodes import static_guess
from repro.metrics.counters import SimCounters
from repro.trace.record import TraceRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.telemetry.hub import Telemetry

#: Lowest address bit that may NOT influence any zoo table index, tag, or
#: folded history.  Matches ``repro.oracle.metamorphic.RELABEL_GRANULE``
#: (``1 << 22``): relabeling a trace by a granule multiple must leave every
#: placement decision — and therefore every counter — unchanged.
INDEX_BIT_LIMIT = 22


@dataclass(frozen=True, slots=True)
class ZooPrediction:
    """A direction/target prediction emitted by a zoo predictor.

    ``target`` is the predicted redirect address when ``taken`` is true;
    ``None`` means the predictor asserts a direction but has no target to
    redirect fetch to (resolved as a wrong-target mispredict if the branch
    is in fact taken).
    """

    taken: bool
    target: int | None = None


class SetAssociativeTable:
    """Bounded set-associative, MRU-ordered store keyed by branch address.

    The zoo predictors use this as their Branch Identification Table and
    the differential oracle sabotages it in the mutation drill, so the
    replacement discipline is part of the verified contract: rows are
    MRU-first lists, :meth:`install` inserts at MRU and evicts the LRU way,
    :meth:`touch` promotes to MRU, :meth:`lookup` is pure.

    ``rows`` must be a power of two no larger than
    ``1 << (INDEX_BIT_LIMIT - shift)`` so the row index only consumes
    address bits below the relabel granule.
    """

    def __init__(self, rows: int, ways: int, shift: int = 1) -> None:
        if rows < 1 or rows & (rows - 1):
            raise ValueError("rows must be a positive power of two")
        if ways < 1:
            raise ValueError("ways must be positive")
        if rows > (1 << (INDEX_BIT_LIMIT - shift)):
            raise ValueError(
                "rows would index above the relabel granule "
                f"(limit {1 << (INDEX_BIT_LIMIT - shift)})")
        self.rows = rows
        self.ways = ways
        self.shift = shift
        self._rows: list[list] = [[] for _ in range(rows)]

    @property
    def capacity(self) -> int:
        """Total entry capacity (rows × ways)."""
        return self.rows * self.ways

    def __len__(self) -> int:
        """Number of resident entries."""
        return sum(len(row) for row in self._rows)

    def row_index(self, address: int) -> int:
        """Row selected by ``address`` (bits below the relabel granule only)."""
        return (address >> self.shift) % self.rows

    def lookup(self, address: int):
        """The resident entry for ``address``, or ``None``.  Pure (no MRU update)."""
        for entry in self._rows[self.row_index(address)]:
            if entry.address == address:
                return entry
        return None

    def touch(self, address: int) -> None:
        """Promote the entry for ``address`` to MRU (no-op when absent)."""
        row = self._rows[self.row_index(address)]
        for position, entry in enumerate(row):
            if entry.address == address:
                row.insert(0, row.pop(position))
                return

    def install(self, entry):
        """Insert ``entry`` at MRU; return the evicted LRU victim or ``None``."""
        row = self._rows[self.row_index(entry.address)]
        row.insert(0, entry)
        if len(row) > self.ways:
            return row.pop()
        return None

    def entries(self):
        """Iterate every resident entry (row-major, MRU first within a row)."""
        for row in self._rows:
            yield from row

    def state_dict(self, encode: Callable) -> list:
        """Row-major snapshot; each entry serialized through ``encode``."""
        return [[encode(entry) for entry in row] for row in self._rows]

    def load_state_dict(self, state: list, decode: Callable) -> None:
        """Restore a snapshot written by :meth:`state_dict` via ``decode``."""
        if len(state) != self.rows:
            raise ValueError(
                f"snapshot has {len(state)} rows, table has {self.rows}")
        self._rows = [[decode(item) for item in row] for row in state]


class ZooPredictor(Predictor):
    """Shared sequence engine for the non-paper predictors.

    Subclasses implement four hooks — :meth:`predict` (pure direction/
    target prediction given a resident BIT entry), :meth:`train` (state
    update after resolution), :meth:`_new_entry` (BIT entry factory), and
    the ``_encode_entry``/``_decode_entry``/``tables_state``/
    ``load_tables`` checkpoint codecs — and inherit everything else:
    context-switch detection, the Figure 4 outcome taxonomy, surprise
    classification via the static-guess heuristic, penalty attribution,
    the probe/telemetry hooks, and the conservation self-check.

    Zoo predictors model a decode-coupled predictor (no asynchronous
    lookahead pipeline), so the latency surprise class never occurs: a
    branch absent from the BIT is a compulsory or capacity surprise, one
    that is resident resolves dynamically.
    """

    #: Branches between incremental self-checks when constructed with
    #: ``audit=True`` (mirrors the paper engine's periodic auditor sweep).
    AUDIT_INTERVAL = 64

    def __init__(
        self,
        config: PredictorConfig = ZEC12_CONFIG_2,
        timing: TimingParams = DEFAULT_TIMING,
        *,
        audit: bool = False,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.config = config
        self.timing = timing
        self.audit = audit
        self.telemetry = telemetry
        #: Per-branch observer ``probe(record, prediction, kind, penalty)``.
        self.probe: Callable | None = None
        self.counters = SimCounters()
        #: Branch Identification Table: which branches the front-end knows.
        #: Sized like the BTB1 so capacity pressure is comparable across
        #: the zoo and the paper stack.
        self.bit = SetAssociativeTable(rows=config.btb1_rows,
                                       ways=config.btb1_ways)
        self._cycle = 0.0
        self._started = False
        self._expected_address = 0
        self._seen: set[int] = set()
        self._taken_extra = max(
            0.0, timing.taken_branch_decode_cycles - timing.base_decode_cycles)

    # -- subclass hooks ------------------------------------------------------

    @abc.abstractmethod
    def predict(self, record: TraceRecord, entry) -> ZooPrediction | None:
        """Pure prediction for a branch resident in the BIT (``entry``)."""

    @abc.abstractmethod
    def train(self, record: TraceRecord) -> None:
        """Update all predictor state with the resolved outcome of ``record``."""

    @abc.abstractmethod
    def _new_entry(self, address: int):
        """Fresh BIT entry for a newly identified branch at ``address``."""

    @abc.abstractmethod
    def _encode_entry(self, entry) -> list:
        """JSON-safe encoding of one BIT entry."""

    @abc.abstractmethod
    def _decode_entry(self, state: list):
        """Inverse of :meth:`_encode_entry`."""

    def tables_state(self) -> dict:
        """JSON-safe snapshot of direction state outside the BIT (default none)."""
        return {}

    def load_tables(self, state: dict) -> None:
        """Restore the :meth:`tables_state` snapshot (default no-op)."""

    def _on_evict(self, victim) -> None:
        """Hook invoked when the BIT evicts ``victim`` (default no-op)."""

    # -- shared training plumbing -------------------------------------------

    def _ensure_entry(self, record: TraceRecord):
        """Allocate-or-touch the BIT entry for ``record`` and learn its target."""
        entry = self.bit.lookup(record.address)
        if entry is None:
            entry = self._new_entry(record.address)
            victim = self.bit.install(entry)
            if victim is not None:
                self._on_evict(victim)
        else:
            self.bit.touch(record.address)
        if record.taken:
            entry.target = record.target
        return entry

    # -- sequence engine -----------------------------------------------------

    def step(self, record: TraceRecord) -> None:
        """Consume one record: account cycles, resolve any branch."""
        if self._started and record.address != self._expected_address:
            self.counters.context_switches += 1
        self._started = True
        self._expected_address = record.next_address
        self.counters.instructions += 1
        self._cycle += self.timing.base_decode_cycles
        if record.kind is not None:
            self._branch(record)

    def warm_step(self, record: TraceRecord) -> None:
        """Functional warming: structures learn, nothing is accounted."""
        self._started = True
        self._expected_address = record.next_address
        if record.kind is not None:
            self.train(record)
            self._seen.add(record.address)

    def _branch(self, record: TraceRecord) -> None:
        counters = self.counters
        counters.branches += 1
        if record.taken:
            counters.taken_branches += 1
            self._cycle += self._taken_extra
        entry = self.bit.lookup(record.address)
        prediction = None if entry is None else self.predict(record, entry)
        if prediction is None:
            kind, penalty = self._classify_surprise(record)
        else:
            kind, penalty = self._classify_dynamic(record, prediction)
        counters.record_outcome(kind)
        if penalty:
            self._cycle += penalty
            cause = "mispredict" if kind.is_mispredict else "surprise"
            counters.attribute_penalty(cause, penalty)
        self.train(record)
        self._seen.add(record.address)
        if self.probe is not None:
            self.probe(record, prediction, kind, penalty)
        if self.telemetry is not None:
            self.telemetry.on_outcome(self._cycle, record, kind, penalty)
        if self.audit and counters.branches % self.AUDIT_INTERVAL == 0:
            self._raise_on_problems()

    def _classify_surprise(self, record: TraceRecord):
        """Figure 4 classification for a branch the front-end did not know."""
        backward = record.target is not None and record.target <= record.address
        guess = static_guess(record.kind, backward)
        if not guess and not record.taken:
            return OutcomeKind.GOOD_SURPRISE, 0.0
        if record.address in self._seen:
            kind = OutcomeKind.SURPRISE_CAPACITY
        else:
            kind = OutcomeKind.SURPRISE_COMPULSORY
        if guess and record.taken and not record.kind.target_changes:
            return kind, self.timing.surprise_taken_decode_penalty
        return kind, self.timing.surprise_resolution_penalty

    def _classify_dynamic(self, record: TraceRecord, prediction: ZooPrediction):
        """Figure 4 classification for a dynamically predicted branch."""
        if prediction.taken and record.taken:
            if prediction.target is not None and prediction.target == record.target:
                return OutcomeKind.GOOD_DYNAMIC, 0.0
            return (OutcomeKind.MISPREDICT_WRONG_TARGET,
                    self.timing.mispredict_penalty)
        if prediction.taken:
            return (OutcomeKind.MISPREDICT_TAKEN_NOT_TAKEN,
                    self.timing.mispredict_penalty)
        if record.taken:
            return (OutcomeKind.MISPREDICT_NOT_TAKEN_TAKEN,
                    self.timing.mispredict_penalty)
        return OutcomeKind.GOOD_DYNAMIC, 0.0

    def finish(self) -> SimulationResult:
        """Seal the run: final self-check, publish the clock, snapshot counters."""
        if self.audit:
            self._raise_on_problems()
        self.counters.cycles = self._cycle
        return SimulationResult(config_name=self.config.name,
                                counters=self.counters)

    # -- auditing ------------------------------------------------------------

    def audit_problems(self) -> list[str]:
        """Counter-conservation violations observable in the current state.

        The zoo engine has no external auditor; instead its bookkeeping is
        redundant enough to self-check: outcome counts must partition the
        branch count, the clock must reconstruct from instruction/taken/
        penalty accounting, and structurally impossible classes (latency
        surprises, BIT overflow) must stay at zero.
        """
        problems: list[str] = []
        counters = self.counters
        classified = sum(counters.outcomes.values())
        if classified != counters.branches:
            problems.append(
                f"outcome conservation: {classified} classified outcomes "
                f"!= {counters.branches} branches")
        if counters.taken_branches > counters.branches:
            problems.append(
                f"taken conservation: {counters.taken_branches} taken "
                f"> {counters.branches} branches")
        if counters.branches > counters.instructions:
            problems.append(
                f"branch conservation: {counters.branches} branches "
                f"> {counters.instructions} instructions")
        if counters.outcomes[OutcomeKind.SURPRISE_LATENCY]:
            problems.append(
                "latency surprises are impossible for a decode-coupled "
                "zoo predictor")
        expected = (counters.instructions * self.timing.base_decode_cycles
                    + counters.taken_branches * self._taken_extra
                    + sum(counters.penalty_cycles.values()))
        if not math.isclose(self._cycle, expected,
                            rel_tol=1e-6, abs_tol=1e-6):
            problems.append(
                f"cycle conservation: clock {self._cycle!r} != "
                f"reconstructed {expected!r}")
        if len(self.bit) > self.bit.capacity:
            problems.append(
                f"BIT overflow: {len(self.bit)} entries in a "
                f"{self.bit.capacity}-entry table")
        return problems

    def _raise_on_problems(self) -> None:
        from repro.audit.auditor import AuditViolation

        problems = self.audit_problems()
        if problems:
            raise AuditViolation(f"{self.name} conservation", problems)

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Versioned, JSON-safe snapshot of every mutable structure."""
        return {
            "version": self.STATE_VERSION,
            "model": self.model_fingerprint(),
            "predictor": self.name,
            "cycle": self._cycle,
            "started": self._started,
            "expected_address": self._expected_address,
            "seen": sorted(self._seen),
            "counters": self.counters.state_dict(),
            "bit": self.bit.state_dict(self._encode_entry),
            "tables": self.tables_state(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot; refuse foreign models."""
        version = state.get("version")
        if version != self.STATE_VERSION:
            raise ValueError(
                f"cannot load state version {version!r} "
                f"(expected {self.STATE_VERSION})")
        if state.get("predictor") != self.name:
            raise ValueError(
                f"snapshot is for predictor {state.get('predictor')!r}, "
                f"not {self.name!r}")
        if state.get("model") != self.model_fingerprint():
            raise ValueError(
                "snapshot was produced by a different model configuration")
        self._cycle = state["cycle"]
        self._started = state["started"]
        self._expected_address = state["expected_address"]
        self._seen = set(state["seen"])
        self.counters = SimCounters()
        self.counters.load_state_dict(state["counters"])
        self.bit.load_state_dict(state["bit"], self._decode_entry)
        self.load_tables(state["tables"])


def saturate(value: int, taken: bool, maximum: int) -> int:
    """Move a saturating counter one step toward ``taken`` within [0, maximum]."""
    if taken:
        return min(maximum, value + 1)
    return max(0, value - 1)
