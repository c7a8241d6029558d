"""Integration tests for the whole-system simulator on crafted traces."""

import pytest

from repro.core.config import PredictorConfig, ZEC12_CONFIG_1, ZEC12_CONFIG_2
from repro.core.events import OutcomeKind
from repro.engine.params import TimingParams
from repro.engine.simulator import Simulator, simulate
from repro.isa.opcodes import BranchKind
from repro.trace.record import TraceRecord
from repro.workloads.catalog import workload_by_name

from tests.conftest import assert_contiguous, branch, loop_trace, straightline

BASE = 0x1000_0000


def small_config(**overrides):
    defaults = dict(
        btb1_rows=64, btb1_ways=2, btbp_rows=16, btbp_ways=2,
        btb2_rows=256, btb2_ways=4,
        pht_entries=256, ctb_entries=256, fit_entries=8,
        surprise_bht_entries=1024,
    )
    defaults.update(overrides)
    return PredictorConfig(**defaults)


class TestBasics:
    def test_straightline_code_has_no_bad_outcomes(self):
        result = simulate(straightline(BASE, 200), config=small_config())
        assert result.counters.branches == 0
        assert result.counters.bad_outcomes == 0
        assert result.cpi > 0

    def test_instruction_count(self):
        result = simulate(straightline(BASE, 123), config=small_config())
        assert result.counters.instructions == 123

    def test_determinism(self):
        trace = loop_trace(iterations=50)
        a = simulate(trace, config=small_config())
        b = simulate(trace, config=small_config())
        assert a.cpi == b.cpi
        assert a.counters.outcomes == b.counters.outcomes

    def test_finish_sets_cycles(self):
        sim = Simulator(config=small_config())
        for record in straightline(BASE, 10):
            sim.step(record)
        result = sim.finish()
        assert result.counters.cycles == pytest.approx(sim._cycle)


class TestLoopLearning:
    def test_loop_branch_learned_after_first_iteration(self):
        # 100-iteration loop: the first encounter is a compulsory surprise,
        # after which the branch is predicted dynamically.
        result = simulate(loop_trace(iterations=100), config=small_config())
        outcomes = result.counters.outcomes
        assert outcomes[OutcomeKind.SURPRISE_COMPULSORY] == 1
        assert outcomes[OutcomeKind.GOOD_DYNAMIC] >= 95

    def test_loop_exit_mispredicted_by_bimodal(self):
        result = simulate(loop_trace(iterations=100), config=small_config())
        # The final not-taken exit is the lone direction mispredict.
        assert (
            result.counters.outcomes[OutcomeKind.MISPREDICT_TAKEN_NOT_TAKEN]
            == 1
        )


class TestSurpriseClassification:
    def test_first_sighting_is_compulsory(self):
        trace = straightline(BASE, 4) + [
            branch(BASE + 16, taken=True, target=BASE + 64,
                   kind=BranchKind.UNCOND)
        ] + straightline(BASE + 64, 4)
        result = simulate(trace, config=small_config())
        assert result.counters.outcomes[OutcomeKind.SURPRISE_COMPULSORY] == 1

    def test_capacity_after_eviction(self):
        # One branch, revisited after enough conflicting installs to push it
        # out of the tiny first level.
        config = small_config(btb1_rows=8, btb1_ways=1, btbp_rows=8,
                              btbp_ways=1, btb2_enabled=False)
        target_branch = BASE + 15 * 32  # lives in row 15
        records = []
        # First visit: surprise install.
        records.append(branch(target_branch, taken=True, target=target_branch + 64,
                              kind=BranchKind.UNCOND))
        records.extend(straightline(target_branch + 64, 2))
        # Conflicting branches: same BTB row, different tags.
        for conflict in range(1, 4):
            alias = target_branch + conflict * (8 * 32)
            records.append(branch(records[-1].next_sequential, taken=True,
                                  target=alias, kind=BranchKind.UNCOND))
            records.append(branch(alias, taken=True, target=alias + 64,
                                  kind=BranchKind.UNCOND))
            records.extend(straightline(alias + 64, 2))
        # Revisit the original branch.
        records.append(branch(records[-1].next_sequential, taken=True,
                              target=target_branch, kind=BranchKind.UNCOND))
        records.append(branch(target_branch, taken=True,
                              target=target_branch + 64,
                              kind=BranchKind.UNCOND))
        records.extend(straightline(target_branch + 64, 2))
        assert_contiguous(records)
        result = simulate(records, config=config)
        assert result.counters.outcomes[OutcomeKind.SURPRISE_CAPACITY] >= 1

    def test_good_surprise_for_cold_not_taken(self):
        trace = straightline(BASE, 4) + [
            branch(BASE + 16, taken=False, target=BASE + 1024)
        ] + straightline(BASE + 20, 4)
        result = simulate(trace, config=small_config())
        assert result.counters.outcomes[OutcomeKind.GOOD_SURPRISE] == 1
        assert result.counters.bad_outcomes == 0


class TestPenaltyAccounting:
    def test_surprise_penalty_charged(self):
        timing = TimingParams()
        trace = straightline(BASE, 4) + [
            branch(BASE + 16, taken=True, target=BASE + 64,
                   kind=BranchKind.UNCOND)
        ] + straightline(BASE + 64, 4)
        result = simulate(trace, config=small_config(), timing=timing)
        assert result.counters.penalty_cycles.get("surprise", 0) > 0

    def test_icache_miss_penalty_charged(self):
        result = simulate(straightline(BASE, 300, length=6),
                          config=small_config())
        assert result.counters.penalty_cycles.get("icache_miss", 0) > 0

    def test_prefetch_hides_icache_miss_for_predicted_branch(self):
        # A hot loop whose body spans into a second line: once predicted,
        # the taken branch prefetches its target line.
        config = small_config()
        result = simulate(loop_trace(iterations=200, body=8), config=config)
        counters = result.counters
        # Demand misses happen only for the first touches.
        assert counters.icache_demand_misses <= 4


class TestBTB2EndToEnd:
    def _thrash_trace(self, rounds=30, sites=16, hops=4):
        """Visit ``sites`` distant multi-branch blocks round-robin.

        Each site is a chain of ``hops`` taken branches 32 bytes apart —
        all inside one 128-byte sector, so a single BTB2 partial search can
        restore the whole chain.  The combined branch population exceeds
        the tiny BTB1, so without a BTB2 every revisit re-learns the chain
        one surprise at a time.  The 0x1020 stride spreads sites across BTB
        rows (a 0x1000 stride would alias them into one congruence class).
        """
        records = []
        site_addresses = [BASE + i * 0x1020 for i in range(sites)]
        for _ in range(rounds):
            for site, address in enumerate(site_addresses):
                for hop in range(hops):
                    hop_base = address + hop * 0x20
                    records.extend(straightline(hop_base, 4))
                    if hop < hops - 1:
                        target = address + (hop + 1) * 0x20
                    else:
                        target = site_addresses[(site + 1) % sites]
                    records.append(
                        branch(hop_base + 16, taken=True, target=target,
                               kind=BranchKind.UNCOND)
                    )
        return records

    def test_btb2_reduces_capacity_surprises(self):
        trace = self._thrash_trace()
        config_off = small_config(btb1_rows=8, btb1_ways=1, btbp_rows=8,
                                  btbp_ways=6, btb2_enabled=False)
        config_on = small_config(btb1_rows=8, btb1_ways=1, btbp_rows=8,
                                 btbp_ways=6, btb2_enabled=True)
        off = simulate(trace, config=config_off)
        on = simulate(trace, config=config_on)
        cap = OutcomeKind.SURPRISE_CAPACITY
        assert on.counters.outcomes[cap] < off.counters.outcomes[cap]
        assert on.cpi < off.cpi

    def test_btb2_transfers_happen(self):
        trace = self._thrash_trace()
        config = small_config(btb1_rows=8, btb1_ways=1, btbp_rows=8,
                              btbp_ways=6)
        result = simulate(trace, config=config)
        assert result.preload_stats["entries_transferred"] > 0
        assert result.preload_stats["full_searches"] + \
            result.preload_stats["partial_searches"] > 0


class TestZEC12Configs:
    def test_architected_configs_run(self):
        trace = loop_trace(iterations=30)
        for config in (ZEC12_CONFIG_1, ZEC12_CONFIG_2):
            result = simulate(trace, config=config)
            assert result.counters.instructions == len(trace)

    def test_config1_has_no_preload_stats(self):
        result = simulate(loop_trace(iterations=10), config=ZEC12_CONFIG_1)
        assert result.preload_stats == {}


class TestFeed:
    def test_feeds_split_anywhere_match_one_run(self):
        # Callers split detailed records across feeds (measure points,
        # parallel heartbeat blocks, service chunks); each split must be
        # invisible.
        trace = list(workload_by_name("CB84").trace(scale=0.02))
        reference = Simulator(config=ZEC12_CONFIG_2)
        reference.run(trace)
        cuts = [0, 1, 777, 8197, len(trace) // 2, len(trace)]
        pieces = Simulator(config=ZEC12_CONFIG_2)
        for start, stop in zip(cuts, cuts[1:]):
            pieces.feed(iter(trace[start:stop]))
        pieces.finish()
        assert reference.state_dict() == pieces.state_dict()


class TestEngineModeArgument:
    def test_entry_points_refuse_unknown_modes(self):
        # ``run_workload`` and ``run_sampled`` still take an engine mode;
        # a known one selects the one engine, an unknown one is refused
        # before anything runs.
        from repro.experiments.common import run_workload
        from repro.sampling import run_sampled

        spec = workload_by_name("TPF")
        for unknown in ("batched", "warp"):
            with pytest.raises(ValueError, match="unknown engine_mode"):
                run_workload(spec, ZEC12_CONFIG_2, scale=0.01,
                             engine_mode=unknown)
            with pytest.raises(ValueError, match="unknown engine_mode"):
                run_sampled(loop_trace(iterations=10), engine_mode=unknown)
