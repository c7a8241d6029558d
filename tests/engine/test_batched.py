"""Batched-engine equivalence: escape boundaries, parity, golden gate.

The batched engine (:mod:`repro.engine.batched`) must be bit-identical to
the object engine.  This suite enforces that three ways:

* **Escape-boundary lockstep** — a reference object simulator is stepped
  to every escape the batched run takes, and the two full ``state_dict()``
  snapshots must match *at each boundary*, not just at the end.  The
  traces are crafted to force each escape class mid-chunk: surprise
  branches, perceived-miss reports, context switches landing on a branch,
  and transfer-engine activity from demand i-cache misses.
* **Whole-run parity** — detailed and warm runs over real catalog traces
  under all three Table 3 configurations, whole or fed in pieces.
* **Metamorphic golden check** — ``engine_mode="auto"`` must leave the
  committed golden baselines bit-identical (the gate the CI smoke runs).
"""

from __future__ import annotations

import pytest

from repro.core.config import (
    ZEC12_CONFIG_1,
    ZEC12_CONFIG_2,
    ZEC12_CONFIG_3,
)
from repro.engine.batched import (
    CHUNK_RECORDS,
    ENGINE_MODES,
    BatchedSimulator,
    validate_engine_mode,
)
from repro.engine.simulator import Simulator
from repro.sampling import SamplingPlan, run_sampled
from repro.telemetry import Telemetry, Tracer
from repro.workloads.catalog import workload_by_name
from tests.conftest import BASE, branch, loop_trace, straightline

CONFIGS = (ZEC12_CONFIG_1, ZEC12_CONFIG_2, ZEC12_CONFIG_3)


def lockstep_escapes(trace, config):
    """Run ``trace`` batched, checking object-engine parity at each escape.

    Returns the batched run's escape counts.  The reference simulator is
    advanced to each escape index before comparing, so any fast-path
    divergence is pinned to the exact record where it first happened.
    """
    ref = Simulator(config=config)
    sim = Simulator(config=config)
    batched = BatchedSimulator(sim)
    position = 0

    def hook(index: int, reason: str) -> None:
        nonlocal position
        for record in trace[position:index]:
            ref.step(record)
        position = index
        assert ref.state_dict() == sim.state_dict(), (
            f"state diverged at escape index {index} ({reason})"
        )

    batched.escape_hook = hook
    batched.feed(trace)
    for record in trace[position:]:
        ref.step(record)
    assert ref.state_dict() == sim.state_dict(), "state diverged at run end"
    return batched.escape_counts


class TestEscapeBoundaries:
    def test_surprise_branches_escape_and_match(self):
        # A fresh loop: the first encounter of the branch is a surprise
        # (no BTB content), later iterations ride the fast path.
        counts = lockstep_escapes(loop_trace(50, body=12), ZEC12_CONFIG_2)
        assert counts.get("no_prediction", 0) >= 1

    def test_context_switch_onto_branch_escapes(self):
        # A discontinuity landing directly on a branch record cannot be
        # classified by the fast path (the object engine restarts the
        # searcher first); it must escape.
        segment = []
        for i in range(6):
            start = BASE + i * 0x4000_0000
            segment += straightline(start, 30)
            # The switch target is itself a branch record: the previous
            # record's next-address does not lead here.
            landing = start + 0x5000
            segment.append(branch(landing, taken=True, target=landing + 64))
            segment += straightline(landing + 64, 20)
        counts = lockstep_escapes(segment, ZEC12_CONFIG_2)
        assert counts.get("context_switch_branch", 0) >= 1

    def test_long_empty_gap_escapes_as_miss_report(self):
        # A branch far beyond the search point forces the gap walk over
        # more than ``miss_limit`` empty rows: the object engine emits a
        # perceived-miss report mid-walk, so the fast path must escape.
        sim = Simulator(config=ZEC12_CONFIG_2)
        gap_rows = sim.search.miss_limit + 2
        trace = []
        for repeat_index in range(4):
            trace += straightline(BASE, gap_rows * 8)  # 8 records per row
            far = BASE + gap_rows * 8 * 4
            trace.append(branch(far, taken=True, target=BASE))
        counts = lockstep_escapes(trace, ZEC12_CONFIG_2)
        assert counts.get("miss_report", 0) >= 1

    def test_transfer_activity_matches_on_real_trace(self):
        # A real trace under the full BTB2 configuration exercises demand
        # i-cache misses, tracker upgrades and bulk-transfer deliveries;
        # parity must hold through every busy window.
        trace = workload_by_name("CB84").trace(scale=0.02)
        counts = lockstep_escapes(list(trace), ZEC12_CONFIG_2)
        assert sum(counts.values()) >= 1

    def test_escapes_span_chunk_boundaries(self):
        # More than one chunk of records, with escapes on both sides of
        # the boundary: absolute escape indices must stay correct.
        trace = loop_trace(CHUNK_RECORDS // 4, body=6)
        assert len(trace) > CHUNK_RECORDS
        lockstep_escapes(trace, ZEC12_CONFIG_2)


class TestWholeRunParity:
    @pytest.mark.parametrize("config", CONFIGS,
                             ids=[c.name for c in CONFIGS])
    def test_detailed_run_bit_identical(self, config):
        trace = workload_by_name("CB84").trace(scale=0.02)
        reference = Simulator(config=config)
        reference.run(trace)
        batched = Simulator(config=config, engine_mode="auto")
        batched.run(trace)
        assert reference.state_dict() == batched.state_dict()

    def test_feeds_split_anywhere_match_one_run(self):
        # Callers split detailed records across feeds (measure points,
        # heartbeat blocks, service chunks); each split must be invisible.
        trace = list(workload_by_name("CB84").trace(scale=0.02))
        reference = Simulator(config=ZEC12_CONFIG_2)
        reference.run(trace)
        cuts = [0, 1, 777, CHUNK_RECORDS + 5, len(trace) // 2, len(trace)]
        pieces = Simulator(config=ZEC12_CONFIG_2, engine_mode="auto")
        for start, stop in zip(cuts, cuts[1:]):
            pieces.feed(iter(trace[start:stop]))
        pieces.finish()
        assert reference.state_dict() == pieces.state_dict()

    @pytest.mark.parametrize("config", CONFIGS,
                             ids=[c.name for c in CONFIGS])
    def test_warm_run_bit_identical(self, config):
        trace = workload_by_name("CB84").trace(scale=0.02)
        reference = Simulator(config=config)
        reference.warm_run(trace)
        batched = Simulator(config=config, engine_mode="auto")
        batched.warm_run(trace)
        assert reference.state_dict() == batched.state_dict()

    def test_sampled_estimates_bit_identical(self):
        trace = workload_by_name("CB84").trace(scale=0.05)
        plan = SamplingPlan(warmup=2_000, interval=2_000, period=20_000)
        reference = run_sampled(trace, config=ZEC12_CONFIG_2, plan=plan)
        batched = run_sampled(trace, config=ZEC12_CONFIG_2, plan=plan,
                              engine_mode="auto")
        assert reference.result == batched.result


class TestEngineModeSemantics:
    def test_modes_are_validated(self):
        assert ENGINE_MODES == ("object", "auto")
        for unknown in ("vectorized", "batched"):
            with pytest.raises(ValueError, match="unknown engine_mode"):
                Simulator(engine_mode=unknown)
        for mode in ENGINE_MODES:
            assert validate_engine_mode(mode) == mode

    def test_auto_resolves_by_observation(self, monkeypatch):
        # Simulator.feed is the one dispatch: the batched core runs under
        # ``auto`` exactly when no per-record observer is attached.
        fed = []
        monkeypatch.setattr(BatchedSimulator, "feed",
                            lambda self, records: fed.append(len(records)))
        trace = straightline(BASE, 10)
        Simulator(engine_mode="auto").feed(trace)
        assert fed == [10]
        Simulator(engine_mode="object").feed(trace)
        Simulator(engine_mode="auto",
                  telemetry=Telemetry(tracer=Tracer())).feed(trace)
        probed = Simulator(engine_mode="auto")
        probed.probe = object()  # straight-line code never calls it
        probed.feed(trace)
        assert fed == [10]

    def test_batched_run_with_observer_falls_back_identically(self):
        # An ``auto`` run with telemetry attached must not lose events:
        # the run degrades to per-record stepping.
        trace = loop_trace(200, body=6)
        plain = Simulator(config=ZEC12_CONFIG_2,
                          telemetry=Telemetry(tracer=Tracer()))
        plain.run(trace)
        batched = Simulator(config=ZEC12_CONFIG_2, engine_mode="auto",
                            telemetry=Telemetry(tracer=Tracer()))
        batched.run(trace)
        assert plain.state_dict() == batched.state_dict()
        assert len(plain.telemetry.tracer.events) \
            == len(batched.telemetry.tracer.events)


class TestGoldenMetamorphic:
    """``engine_mode="auto"`` must leave golden baselines bit-identical."""

    def _gate(self, workloads):
        from repro.oracle.golden import GOLDEN_PATH, compare, load_baseline

        baseline = load_baseline(GOLDEN_PATH)
        problems = compare(baseline, predictors=("paper",),
                           workloads=workloads, engine_mode="auto")
        assert problems == []

    def test_batched_engine_passes_golden_smoke(self):
        self._gate(("Z/OS LSPR CB84",))

    @pytest.mark.slow
    def test_batched_engine_passes_full_golden_gate(self):
        self._gate(None)
