"""The lockstep oracle: every registered predictor against its reference.

:func:`lockstep` builds the production model of any registry name with
:func:`~repro.predictors.registry.create_predictor`, steps it beside an
independently written reference model, and stops at the *first*
disagreement, reporting the record, branch address and structure (and,
for the paper stack, the search-pipeline cycle).  :data:`ORACLES` holds
the comparison per registry name:

* ``"paper"`` — the event-level probe.  The production
  :class:`~repro.engine.simulator.Simulator` exposes optional ``probe``
  observers on its three semantic actors (the simulator itself, the
  lookahead searcher, the transfer engine); :class:`_Probe` replays every
  semantic event — row probe and prediction, move protocol, surprise guess
  and install, training, bulk-transfer row delivery — against
  :class:`~repro.oracle.reference.ReferencePredictor`.  The comparison
  layers, cheapest first: per-event outputs (predicted direction/target/
  level/MRU, replacement victims, surprise guesses, outcome taxonomy,
  delivered transfer rows); the resolved branch's BTB1/BTBP rows in exact
  replacement order after every branch; and a dict-walk diff of the
  complete production snapshot every :data:`FULL_COMPARE_INTERVAL`
  branches and at the end of the run.
* every zoo member — the per-branch comparison against its reference in
  :mod:`repro.oracle.zoo_reference`: predicted direction, predicted
  target, outcome class and charged penalty, then the final counters and
  the reconstructed clock.

On top of :func:`lockstep` sits the rest of the toolkit, the same for every
predictor: :func:`shrink_divergence` (the fuzz harness's ddmin shrinker,
:func:`repro.audit.fuzz.shrink`, with "the lockstep still diverges" as
the predicate), :func:`mutation_drill` (proof that every oracle catches a
sabotaged LRU promotion), and :func:`run_campaign` (the lockstep slate
``repro verify`` runs).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

from repro.audit.fuzz import FUZZ_CONFIGS, build_trace, shrink
from repro.core.config import PredictorConfig, TABLE3_CONFIGS, ZEC12_CONFIG_2
from repro.core.events import OutcomeKind, Prediction
from repro.engine.params import DEFAULT_TIMING, TimingParams
from repro.engine.predictor import Predictor
from repro.engine.simulator import Simulator
from repro.oracle.reference import (
    GOOD_DYNAMIC,
    GOOD_SURPRISE,
    MISPREDICT_NOT_TAKEN_TAKEN,
    MISPREDICT_TAKEN_NOT_TAKEN,
    MISPREDICT_WRONG_TARGET,
    ReferencePredictor,
    RefEntry,
    RefResolution,
)
from repro.oracle.zoo_reference import ZOO_REFERENCES
from repro.predictors.registry import create_predictor, predictor_names
from repro.trace.record import TraceRecord
from repro.workloads.adversarial import corpus_trace

#: Branches between full-state snapshot comparisons of the paper stack.
#: Row-level compares run on every branch; the full dict walk is
#: O(occupancy) and amortized.
FULL_COMPARE_INTERVAL = 256


@dataclass(frozen=True)
class Divergence:
    """First disagreement between a production model and its reference."""

    #: Index of the trace record being resolved when the divergence fired
    #: (the trace length for end-of-run comparisons).
    record_index: int
    #: Branch address involved (``None`` for end-of-run comparisons).
    branch_address: int | None
    #: The structure (or comparison layer) that disagreed, e.g. ``"BTB1
    #: row"``, ``"hierarchy.fit.table"``, ``"taken"``, ``"final cycles"``.
    structure: str
    #: Human-readable engine-vs-reference detail.
    detail: str
    #: Production search-pipeline cycle (``None`` for the zoo, which has
    #: no search clock).
    cycle: int | None = None

    def report(self) -> str:
        address = (
            f"0x{self.branch_address:x}"
            if self.branch_address is not None else "<end of run>"
        )
        cycle = f", cycle {self.cycle}" if self.cycle is not None else ""
        return (
            f"divergence at record {self.record_index}, branch {address}"
            f"{cycle}: structure '{self.structure}'\n"
            f"  {self.detail}"
        )


class DivergenceError(Exception):
    """Raised by the probe at the first engine/reference disagreement."""

    def __init__(self, divergence: Divergence) -> None:
        super().__init__(divergence.report())
        self.divergence = divergence


@dataclass(frozen=True)
class LockstepResult:
    """Outcome of one lockstep run of a registered predictor."""

    predictor: str
    config: str
    records: int
    branches: int
    divergence: Divergence | None
    #: Comparison volume, for "the oracle actually checked things" asserts.
    events_compared: int

    @property
    def diverged(self) -> bool:
        return self.divergence is not None

    def report(self) -> str:
        if self.divergence is not None:
            return self.divergence.report()
        return (
            f"no divergence: {self.records} records, {self.branches} "
            f"branches, {self.events_compared} events compared"
        )


def _diff_state(production, reference, path: str = "") -> tuple[str, str] | None:
    """First differing path between two snapshot trees, or ``None``.

    Returns ``(path, detail)`` — the path doubles as the divergence's
    structure name (e.g. ``hierarchy.btb1.entries.counter[17]``: the
    counter column of the BTB1 snapshot, at its 18th entry in row order).
    """
    if isinstance(production, dict) and isinstance(reference, dict):
        for key in sorted(set(production) | set(reference), key=str):
            here = f"{path}.{key}" if path else str(key)
            if key not in production:
                return here, f"only the reference has {here}"
            if key not in reference:
                return here, f"only the engine has {here}"
            found = _diff_state(production[key], reference[key], here)
            if found is not None:
                return found
        return None
    if isinstance(production, (list, tuple)) and isinstance(
        reference, (list, tuple)
    ):
        if len(production) != len(reference):
            return path, (
                f"length {len(production)} (engine) != "
                f"{len(reference)} (reference)"
            )
        for position, (left, right) in enumerate(zip(production, reference)):
            found = _diff_state(left, right, f"{path}[{position}]")
            if found is not None:
                return found
        return None
    if production != reference:
        return path, f"engine {production!r} != reference {reference!r}"
    return None


class _Probe:
    """The observer attached to the simulator, searcher and transfer engine.

    Replays each semantic event on the reference model and compares; all
    hooks raise :class:`DivergenceError` on the first disagreement.
    """

    def __init__(self, simulator: Simulator,
                 oracle: ReferencePredictor) -> None:
        self.simulator = simulator
        self.oracle = oracle
        self.record_index = 0
        self.events_compared = 0
        #: Prediction in flight between ``on_predict`` and its resolution.
        self._pending: tuple[RefEntry, RefResolution] | None = None
        self._surprise_outcome: str | None = None

    # -- comparison plumbing ------------------------------------------------

    def _fail(self, structure: str, detail: str,
              branch_address: int | None) -> None:
        raise DivergenceError(
            Divergence(
                record_index=self.record_index,
                branch_address=branch_address,
                structure=structure,
                detail=detail,
                cycle=self.simulator.search.cycle,
            )
        )

    def _check(self, structure: str, engine, reference,
               branch_address: int | None) -> None:
        self.events_compared += 1
        if engine != reference:
            self._fail(
                structure,
                f"engine {engine!r} != reference {reference!r}",
                branch_address,
            )

    def _production_state(self) -> dict:
        simulator = self.simulator
        return {
            "hierarchy": simulator.hierarchy.state_dict(),
            "btb2": (
                simulator.btb2.state_dict()
                if simulator.btb2 is not None else None
            ),
        }

    def compare_full_state(self, branch_address: int | None = None) -> None:
        """Dict-walk diff of complete production vs reference snapshots."""
        self.events_compared += 1
        found = _diff_state(self._production_state(), self.oracle.state_dict())
        if found is not None:
            structure, detail = found
            self._fail(structure, detail, branch_address)

    def compare_final_counters(self) -> None:
        """End-of-run totals: branch counts and the outcome taxonomy."""
        counters = self.simulator.counters
        self._check("branch count", counters.branches,
                    self.oracle.branches, None)
        self._check("taken branch count", counters.taken_branches,
                    self.oracle.taken_branches, None)
        for kind, count in counters.outcomes.items():
            self._check(
                f"outcome total '{kind.value}'",
                count, self.oracle.outcomes.get(kind.value, 0), None,
            )

    def _after_branch(self, record: TraceRecord) -> None:
        """Row-level state compare after every resolved branch."""
        simulator = self.simulator
        engine_row = [
            entry.state_dict()
            for entry in simulator.hierarchy.btb1.row_ways(record.address)
        ]
        reference_row = [
            entry.state_dict()
            for entry in self.oracle.btb1.mru_first(record.address)
        ]
        self._check("BTB1 row", engine_row, reference_row, record.address)
        if simulator.hierarchy.btbp is not None:
            engine_row = [
                entry.state_dict()
                for entry in simulator.hierarchy.btbp.row_ways(record.address)
            ]
            reference_row = [
                entry.state_dict()
                for entry in self.oracle.btbp.mru_first(record.address)
            ]
            self._check("BTBP row", engine_row, reference_row, record.address)
        if self.oracle.branches % FULL_COMPARE_INTERVAL == 0:
            self.compare_full_state(record.address)

    # -- search-side hooks ----------------------------------------------------

    def on_search_restart(self, address: int, cycle: int) -> None:
        self.oracle.on_search_restart()

    def on_predict(self, search_address: int, prediction: Prediction) -> None:
        oracle = self.oracle
        hits = oracle.hits_in_row(search_address)
        if not hits:
            self._fail(
                "BTB1/BTBP row search",
                f"engine predicted branch 0x{prediction.branch_address:x} "
                f"from row 0x{search_address:x}; reference row is empty",
                prediction.branch_address,
            )
        entry, level, from_mru = hits[0]
        self._check("BTB1/BTBP row search", prediction.branch_address,
                    entry.address, prediction.branch_address)
        self._check("prediction level", prediction.level.name, level,
                    prediction.branch_address)
        self._check(f"{level} MRU state", prediction.from_mru, from_mru,
                    prediction.branch_address)
        resolution = oracle.resolve(entry)
        self._check("predicted direction", prediction.taken,
                    resolution.taken, prediction.branch_address)
        self._check("predicted target", prediction.target,
                    resolution.target, prediction.branch_address)
        self._check("PHT consultation", prediction.used_pht,
                    resolution.used_pht, prediction.branch_address)
        self._check("CTB consultation", prediction.used_ctb,
                    resolution.used_ctb, prediction.branch_address)
        oracle.apply_prediction(entry, resolution)
        self._pending = (entry, resolution)

    # -- resolution hooks ------------------------------------------------------

    def on_dynamic_resolve(
        self,
        record: TraceRecord,
        prediction: Prediction,
        kind: OutcomeKind,
        victim,
    ) -> None:
        if self._pending is None:
            self._fail(
                "probe protocol",
                "engine resolved a dynamic prediction the reference never "
                "saw predicted",
                record.address,
            )
        entry, resolution = self._pending
        self._pending = None
        self._check("resolved branch address", record.address, entry.address,
                    record.address)
        oracle = self.oracle
        reference_victim = oracle.use_prediction(entry, prediction.level.name)
        self._check(
            "BTB1 victim",
            victim.address if victim is not None else None,
            (reference_victim.address
             if reference_victim is not None else None),
            record.address,
        )
        if resolution.taken == record.taken and (
            not record.taken or resolution.target == record.target
        ):
            reference_kind = GOOD_DYNAMIC
        elif resolution.taken and record.taken:
            reference_kind = MISPREDICT_WRONG_TARGET
        elif resolution.taken:
            reference_kind = MISPREDICT_TAKEN_NOT_TAKEN
        else:
            reference_kind = MISPREDICT_NOT_TAKEN_TAKEN
        self._check("outcome taxonomy", kind.value, reference_kind,
                    record.address)
        oracle.train(entry, record)
        oracle.record_resolved(record)
        oracle.count_branch(record, reference_kind)
        self._after_branch(record)

    def on_surprise(
        self,
        record: TraceRecord,
        guess_taken: bool,
        late_predicted: bool,
        kind: OutcomeKind,
    ) -> None:
        oracle = self.oracle
        if self._pending is not None:
            # A prediction arrived too late to be used; its search-side
            # side effects already happened in both models.
            entry, _ = self._pending
            self._pending = None
            self._check("late prediction address", record.address,
                        entry.address, record.address)
            if not late_predicted:
                self._fail(
                    "probe protocol",
                    "engine saw no late prediction; the reference predicted "
                    f"0x{entry.address:x}",
                    record.address,
                )
        elif late_predicted:
            self._fail(
                "probe protocol",
                "engine used a late prediction the reference never made",
                record.address,
            )
        resident = oracle.probe_level(record.address)
        seen_before = record.address in oracle.seen
        reference_guess = oracle.guess_surprise(record)
        self._check("surprise BHT", guess_taken, reference_guess,
                    record.address)
        if reference_guess or record.taken:
            reference_kind = oracle.classify_surprise(
                seen_before, resident, late_predicted
            )
        else:
            reference_kind = GOOD_SURPRISE
        self._check("outcome taxonomy", kind.value, reference_kind,
                    record.address)
        self._surprise_outcome = reference_kind

    def on_surprise_commit(self, record: TraceRecord) -> None:
        oracle = self.oracle
        outcome = self._surprise_outcome
        self._surprise_outcome = None
        if outcome is None:
            self._fail(
                "probe protocol",
                "surprise commit without a preceding surprise event",
                record.address,
            )
        if record.taken and record.target is not None:
            oracle.surprise_install(record)
        oracle.train_resident(record)
        oracle.record_resolved(record)
        oracle.count_branch(record, outcome)
        self._after_branch(record)

    # -- preload hooks ---------------------------------------------------------

    def on_row_delivered(
        self, row_address: int, delivered_addresses: list[int]
    ) -> None:
        reference_addresses = self.oracle.deliver_row(row_address)
        self._check(
            "BTB2 transfer row", delivered_addresses, reference_addresses,
            row_address,
        )


#: A comparison: ``(production, records, config, timing) -> (branches,
#: events compared, first divergence or None)``.
Comparison = Callable[
    [Predictor, list[TraceRecord], PredictorConfig, TimingParams],
    tuple[int, int, Divergence | None],
]


def _probe_lockstep(
    simulator: Simulator,
    records: list[TraceRecord],
    config: PredictorConfig,
    timing: TimingParams,
) -> tuple[int, int, Divergence | None]:
    """The paper stack's event-level comparison (see :class:`_Probe`)."""
    oracle = ReferencePredictor(config)
    probe = _Probe(simulator, oracle)
    simulator.probe = probe
    simulator.search.probe = probe
    if simulator.preload is not None:
        simulator.preload.transfer.probe = probe
    divergence: Divergence | None = None
    try:
        for index, record in enumerate(records):
            probe.record_index = index
            simulator.step(record)
        probe.record_index = len(records)
        simulator.finish()
        probe.compare_full_state()
        probe.compare_final_counters()
    except DivergenceError as error:
        divergence = error.divergence
    return oracle.branches, probe.events_compared, divergence


def _branch_lockstep(
    reference_factory: Callable,
    production: Predictor,
    records: list[TraceRecord],
    config: PredictorConfig,
    timing: TimingParams,
) -> tuple[int, int, Divergence | None]:
    """A zoo member's per-branch comparison against its reference model.

    Compares, per branch: predicted direction, predicted target, outcome
    class, and charged penalty; after a clean run, the final counters
    (including the reconstructed clock, to float tolerance).
    """
    reference = reference_factory(config, timing)
    observed: list[tuple] = []

    def probe(record, prediction, kind, penalty) -> None:
        observed.append((
            None if prediction is None else prediction.taken,
            None if prediction is None else prediction.target,
            kind.value, penalty))

    def mismatch(index, address, field, got, want) -> Divergence:
        return Divergence(index, address, field,
                          f"engine {got!r} != reference {want!r}")

    production.probe = probe
    branches = events = 0
    for index, record in enumerate(records):
        observed.clear()
        production.step(record)
        expected = reference.step(record)
        if expected is None:
            continue
        branches += 1
        actual = observed[0] if observed else ("<no probe>",) * 4
        for field, got, want in zip(
                ("taken", "target", "outcome", "penalty"), actual, expected):
            events += 1
            if got != want:
                return branches, events, mismatch(
                    index, record.address, field, got, want)

    counters = production.finish().counters
    final = reference.final_counters()
    for field, got, want in (
        ("instructions", counters.instructions, final["instructions"]),
        ("branches", counters.branches, final["branches"]),
        ("taken_branches", counters.taken_branches, final["taken"]),
        ("context_switches", counters.context_switches,
         final["context_switches"]),
        ("outcomes", {kind.value: count
                      for kind, count in counters.outcomes.items()},
         final["outcomes"]),
    ):
        events += 1
        if got != want:
            return branches, events, mismatch(
                len(records), None, f"final {field}", got, want)
    events += 1
    if not math.isclose(counters.cycles, reference.cycle,
                        rel_tol=1e-9, abs_tol=1e-9):
        return branches, events, mismatch(
            len(records), None, "final cycles", counters.cycles,
            reference.cycle)
    return branches, events, None


#: The lockstep comparison of every registry name.  A registered
#: predictor without an entry here has no oracle, which the test suite
#: refuses.
ORACLES: dict[str, Comparison] = {
    "paper": _probe_lockstep,
    **{
        name: partial(_branch_lockstep, reference)
        for name, reference in ZOO_REFERENCES.items()
    },
}


def lockstep(
    name: str,
    records: Sequence[TraceRecord],
    config: PredictorConfig = ZEC12_CONFIG_2,
    timing: TimingParams = DEFAULT_TIMING,
) -> LockstepResult:
    """Run predictor ``name`` and its reference in lockstep over ``records``.

    Stops at the first divergence.  The production model comes from
    :func:`~repro.predictors.registry.create_predictor` (no auditor),
    exactly as every experiment builds it.
    """
    try:
        compare = ORACLES[name]
    except KeyError:
        raise ValueError(
            f"no reference model for predictor {name!r}; oracles: "
            f"{', '.join(sorted(ORACLES))}") from None
    records = list(records)
    production = create_predictor(name, config=config, timing=timing)
    branches, events, divergence = compare(
        production, records, config, timing)
    return LockstepResult(
        predictor=name, config=config.name, records=len(records),
        branches=branches, divergence=divergence, events_compared=events,
    )


def shrink_divergence(
    name: str,
    records: Sequence[TraceRecord],
    config: PredictorConfig = ZEC12_CONFIG_2,
    timing: TimingParams = DEFAULT_TIMING,
) -> list[TraceRecord]:
    """ddmin a diverging trace to a minimal still-diverging one."""
    return shrink(
        list(records),
        lambda candidate: lockstep(name, candidate, config, timing).diverged,
    )


# -- the mutation drill ------------------------------------------------------

#: Geometry of the mutation drill, the same for every predictor: the fuzz
#: harness's small hierarchy, whose eviction pressure makes
#: replacement-order bugs observable within a short trace.
DRILL_CONFIG = FUZZ_CONFIGS["small baseline"]


def _drill_traces() -> list[list[TraceRecord]]:
    """The drill's eight seeded random traces of 400 records."""
    return [build_trace((7 << 20) ^ case, 400) for case in range(8)]


@contextmanager
def _sabotaged_lru() -> Iterator[None]:
    """Break every production LRU promotion at once; restore on exit.

    A used BTB prediction *demotes* its entry instead of refreshing it (an
    inverted-touch bug in the paper stack), and the zoo's set-associative
    tables stop promoting on hits.  The reference models keep their own
    structures, so only the production side is wrong.
    """
    from repro.btb.storage import BranchTargetBuffer
    from repro.predictors.base import SetAssociativeTable

    btb_touch = BranchTargetBuffer.touch
    table_touch = SetAssociativeTable.touch
    BranchTargetBuffer.touch = BranchTargetBuffer.demote
    SetAssociativeTable.touch = lambda self, address: None
    try:
        yield
    finally:
        BranchTargetBuffer.touch = btb_touch
        SetAssociativeTable.touch = table_touch


def drill(
    names: Sequence[str] | None = None,
) -> tuple[list[str], dict[str, LockstepResult]]:
    """The mutation drill, with its evidence: ``(problems, caught)``.

    A clean leg first: every selected oracle (default: the whole
    registry) must run clean on the drill traces under
    :data:`DRILL_CONFIG`.  Then every production LRU promotion is
    sabotaged at once (:func:`_sabotaged_lru`) and every oracle must
    diverge on at least one drill trace.  ``caught`` maps each predictor
    whose oracle noticed to its first diverging run; ``problems`` names
    every oracle that diverged before the sabotage or missed it.
    """
    names = predictor_names() if names is None else tuple(names)
    traces = _drill_traces()
    problems: list[str] = []
    for name in names:
        for trace in traces:
            clean = lockstep(name, trace, DRILL_CONFIG)
            if clean.diverged:
                problems.append(
                    f"{name}: lockstep diverged before sabotage — "
                    f"{clean.report()}")
                break
    caught: dict[str, LockstepResult] = {}
    with _sabotaged_lru():
        for name in names:
            for trace in traces:
                result = lockstep(name, trace, DRILL_CONFIG)
                if result.diverged:
                    caught[name] = result
                    break
            else:
                problems.append(
                    f"{name}: oracle missed the sabotaged LRU promotion "
                    f"({len(traces)} traces in lockstep)")
    return problems, caught


def mutation_drill(names: Sequence[str] | None = None) -> list[str]:
    """Prove the oracles catch a seeded LRU mutation (see :func:`drill`).

    Returns the problems: an empty list means every selected oracle ran
    clean before the sabotage and caught it after.
    """
    return drill(names)[0]


# -- the lockstep slate ------------------------------------------------------

#: Fixed synthetic traces of the slate, by the call that builds them.
_SYNTHETIC_TRACES: dict[str, Callable[[], list[TraceRecord]]] = {
    "build_trace(11, 1200)": lambda: build_trace(11, 1200),
    "corpus_trace(13, 600)": lambda: corpus_trace(13, 600),
}

#: The lockstep slate every selected predictor runs over, as (trace,
#: config) pairs: one catalog workload per Table 3 configuration
#: (BTB2-less, full hierarchy, big BTB1) at the campaign scale, then a
#: random program walk and an adversarial BTB-probe window on config 2.
LOCKSTEP_SLATE: tuple[tuple[str, str], ...] = (
    ("TPF airline reservations", TABLE3_CONFIGS[0].name),
    ("Z/OS DayTrader DBServ", TABLE3_CONFIGS[1].name),
    ("zLinux Informix", TABLE3_CONFIGS[2].name),
    ("build_trace(11, 1200)", ZEC12_CONFIG_2.name),
    ("corpus_trace(13, 600)", ZEC12_CONFIG_2.name),
)


@dataclass(frozen=True)
class LockstepCase:
    """One (predictor, trace, config) run of the lockstep campaign."""

    predictor: str
    trace: str
    config_name: str
    scale: float

    def label(self) -> str:
        """``<trace> on <config>``, with the scale for catalog workloads."""
        trace = (self.trace if self.trace in _SYNTHETIC_TRACES
                 else f"{self.trace} at scale {self.scale}")
        return f"{trace} on {self.config_name}"

    def records(self) -> list[TraceRecord]:
        """Build (or load from the trace cache) this case's trace."""
        if self.trace in _SYNTHETIC_TRACES:
            return _SYNTHETIC_TRACES[self.trace]()
        from repro.workloads.catalog import workload_by_name

        return workload_by_name(self.trace).trace(self.scale)


def lockstep_case(case: LockstepCase) -> LockstepResult:
    """Run one campaign case (module-level, so it is pool-picklable)."""
    configs = {config.name: config for config in TABLE3_CONFIGS}
    return lockstep(case.predictor, case.records(),
                    configs[case.config_name])


def run_campaign(
    names: Sequence[str] | None = None,
    scale: float = 0.01,
    jobs: int | None = None,
) -> list[tuple[LockstepCase, LockstepResult]]:
    """Run every selected predictor over :data:`LOCKSTEP_SLATE`.

    Cases fan out through :func:`repro.experiments.pool.parallel_map`;
    results come back in (predictor, slate) order.
    """
    from repro.experiments.pool import parallel_map

    names = predictor_names() if names is None else tuple(names)
    cases = [
        LockstepCase(predictor=name, trace=trace, config_name=config_name,
                     scale=scale)
        for name in names
        for trace, config_name in LOCKSTEP_SLATE
    ]
    return list(zip(cases, parallel_map(lockstep_case, cases, jobs=jobs)))
