"""Simulation counters and derived metrics.

:class:`SimCounters` accumulates everything a run observes; derived values
(CPI, the Figure 4 outcome fractions, penalty attribution) are computed on
demand.  The classification taxonomy follows section 5.1:

  "Bad branch outcomes are those that incur a performance penalty.
  Specifically they consist of dynamically mispredicted branches and
  surprise branches which are guessed or resolved taken.  These bad surprise
  branches are classified as compulsory (first time that branch is seen),
  latency (surprise because a prediction wasn't available in time ...), or
  capacity (branch was seen before, and not categorized as missed due to
  latency)."
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.btb.entry import check_keys
from repro.core.events import OutcomeKind


@dataclass
class SimCounters:
    """Raw event counts accumulated by one simulation run."""

    instructions: int = 0
    branches: int = 0
    taken_branches: int = 0
    cycles: float = 0.0
    outcomes: dict[OutcomeKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in OutcomeKind}
    )
    penalty_cycles: dict[str, float] = field(default_factory=dict)
    icache_demand_misses: int = 0
    icache_hidden_misses: int = 0
    icache_partially_hidden_misses: int = 0
    #: Trace discontinuities (time-slice switches, interrupts): the
    #: lookahead searcher is redirected like any other pipeline restart.
    context_switches: int = 0

    def record_outcome(self, kind: OutcomeKind) -> None:
        """Count one classified dynamic branch outcome."""
        self.outcomes[kind] += 1

    def attribute_penalty(self, cause: str, cycles: float) -> None:
        """Attribute ``cycles`` of stall to ``cause``.

        Attribution only — the simulator owns the clock and folds penalty
        cycles into it; ``cycles`` (the total) is set from that clock.
        """
        self.penalty_cycles[cause] = self.penalty_cycles.get(cause, 0.0) + cycles

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of every raw counter.

        ``cycles`` and the penalty attributions are binary64 floats; JSON
        round-trips them exactly (repr-based encoding), so a restored run's
        derived CPI is bit-identical.
        """
        return {
            "instructions": self.instructions,
            "branches": self.branches,
            "taken_branches": self.taken_branches,
            "cycles": self.cycles,
            "outcomes": {kind.value: count for kind, count in self.outcomes.items()},
            "penalty_cycles": dict(self.penalty_cycles),
            "icache_demand_misses": self.icache_demand_misses,
            "icache_hidden_misses": self.icache_hidden_misses,
            "icache_partially_hidden_misses": self.icache_partially_hidden_misses,
            "context_switches": self.context_switches,
        }

    def check_state(self, state: dict) -> None:
        """Raise ``ValueError`` unless :meth:`load_state_dict` restores it whole.

        Every counter must be present and every outcome name known.
        """
        check_keys("counters", state,
                   [counter.name for counter in fields(self)])
        unknown = set(state["outcomes"]).difference(
            kind.value for kind in OutcomeKind)
        if unknown:
            raise ValueError(
                f"counters snapshot: unknown outcome(s) {sorted(unknown)}")

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`."""
        self.instructions = state["instructions"]
        self.branches = state["branches"]
        self.taken_branches = state["taken_branches"]
        self.cycles = state["cycles"]
        self.outcomes = {kind: 0 for kind in OutcomeKind}
        for name, count in state["outcomes"].items():
            self.outcomes[OutcomeKind(name)] = count
        self.penalty_cycles = dict(state["penalty_cycles"])
        self.icache_demand_misses = state["icache_demand_misses"]
        self.icache_hidden_misses = state["icache_hidden_misses"]
        self.icache_partially_hidden_misses = state["icache_partially_hidden_misses"]
        self.context_switches = state["context_switches"]

    # -- derived -------------------------------------------------------------

    @property
    def cpi(self) -> float:
        """Cycles per instruction."""
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def bad_outcomes(self) -> int:
        """Total dynamic branch outcomes that incur a penalty."""
        return sum(count for kind, count in self.outcomes.items() if kind.is_bad)

    @property
    def surprise_outcomes(self) -> int:
        """Total bad surprise outcomes."""
        return sum(count for kind, count in self.outcomes.items() if kind.is_surprise)

    @property
    def mispredict_outcomes(self) -> int:
        """Total dynamic misprediction outcomes."""
        return sum(
            count for kind, count in self.outcomes.items() if kind.is_mispredict
        )

    def outcome_fraction(self, kind: OutcomeKind) -> float:
        """Fraction of all branch outcomes classified as ``kind``."""
        return self.outcomes[kind] / self.branches if self.branches else 0.0

    @property
    def total_penalty_cycles(self) -> float:
        """All stall cycles attributed across causes."""
        return sum(self.penalty_cycles.values())

    def penalty_fraction(self, cause: str) -> float:
        """Share of attributed penalty cycles charged to ``cause``.

        Returns 0.0 on an empty run (no penalties attributed) and for
        causes never seen, so report code can divide unconditionally.
        """
        total = self.total_penalty_cycles
        if not total:
            return 0.0
        return self.penalty_cycles.get(cause, 0.0) / total

    @property
    def bad_outcome_fraction(self) -> float:
        """Fraction of all branch outcomes that are bad (Figure 4 headline)."""
        return self.bad_outcomes / self.branches if self.branches else 0.0

    def outcome_fractions(self) -> dict[OutcomeKind, float]:
        """Per-kind outcome fractions (the Figure 4 bars)."""
        return {kind: self.outcome_fraction(kind) for kind in OutcomeKind}


def cpi_improvement(baseline_cpi: float, improved_cpi: float) -> float:
    """Percent CPI improvement of ``improved`` over ``baseline`` (Figure 2)."""
    if baseline_cpi <= 0:
        raise ValueError("baseline CPI must be positive")
    return (baseline_cpi - improved_cpi) / baseline_cpi * 100.0


def btb2_effectiveness(btb2_gain: float, large_btb1_gain: float) -> float:
    """BTB2 effectiveness: gain from the BTB2 relative to the large BTB1.

    "the ratio of the improvement from adding the BTB2 compared to the
    improvement from adding the unrealistically large BTB1" (5.1), in
    percent.
    """
    if large_btb1_gain == 0:
        return 0.0
    return btb2_gain / large_btb1_gain * 100.0
