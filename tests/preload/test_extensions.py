"""Tests for the paper-described extensions (3.4 alternative / section 6).

* decode-time miss reporting (in addition to search-based detection);
* bounded multi-block transfer following cross-block targets;
* software branch-preload instructions (the fourth BTBP write source).
"""

from repro.btb.btb2 import BTB2
from repro.btb.btbp import WriteSource
from repro.btb.entry import BTBEntry
from repro.caches.icache import ICache
from repro.core.config import FilterMode, PredictorConfig
from repro.core.events import MissReport
from repro.core.hierarchy import FirstLevelPredictor
from repro.isa.opcodes import BranchKind
from repro.preload.engine import PreloadEngine
from repro.preload.tracker import TrackerState

BLOCK = 0x40_0000
OTHER_BLOCK = 0x80_0000


def make_engine(**config_overrides):
    defaults = dict(
        btb1_rows=64, btb1_ways=2, btbp_rows=16, btbp_ways=4,
        pht_entries=64, ctb_entries=64, fit_entries=4,
        surprise_bht_entries=64, filter_mode=FilterMode.OFF,
        ordering_table_sets=16, ordering_table_ways=2,
    )
    defaults.update(config_overrides)
    config = PredictorConfig(**defaults)
    btb2 = BTB2(rows=256, ways=4)
    hierarchy = FirstLevelPredictor(config, btb2=btb2)
    icache = ICache(capacity_bytes=4096, ways=2, line_bytes=256)
    return PreloadEngine(config, btb2, hierarchy, icache)


class TestDecodeMissReporting:
    def test_decode_miss_feeds_tracker_machinery(self):
        engine = make_engine()
        engine.report_decode_miss(BLOCK + 0x100, cycle=10)
        assert engine.decode_miss_reports == 1
        assert engine.trackers.find(BLOCK) is not None

    def test_decode_miss_dedupes_with_search_miss(self):
        engine = make_engine()
        engine.report_btb1_miss(MissReport(search_address=BLOCK + 0x100,
                                           cycle=5))
        engine.report_decode_miss(BLOCK + 0x200, cycle=10)
        assert engine.duplicate_miss_reports == 1


class TestMultiBlockTransfer:
    def _engine_with_cross_block_content(self, **overrides):
        engine = make_engine(multi_block_transfer=True, **overrides)
        # A branch in BLOCK whose target lives in OTHER_BLOCK.
        engine.btb2.install(
            BTBEntry(address=BLOCK + 0x104, target=OTHER_BLOCK + 0x10)
        )
        # Content in the target block worth pulling over.
        engine.btb2.install(
            BTBEntry(address=OTHER_BLOCK + 0x14, target=OTHER_BLOCK + 0x40)
        )
        return engine

    def test_follows_cross_block_target(self):
        engine = self._engine_with_cross_block_content()
        engine.report_btb1_miss(MissReport(search_address=BLOCK + 0x100,
                                           cycle=0))
        engine.flush()
        assert engine.followed_blocks == 1
        assert engine.hierarchy.btbp.lookup(OTHER_BLOCK + 0x14) is not None

    def test_disabled_by_default(self):
        engine = make_engine()
        engine.btb2.install(
            BTBEntry(address=BLOCK + 0x104, target=OTHER_BLOCK + 0x10)
        )
        engine.report_btb1_miss(MissReport(search_address=BLOCK + 0x100,
                                           cycle=0))
        engine.flush()
        assert engine.followed_blocks == 0

    def test_follow_requires_free_tracker(self):
        engine = self._engine_with_cross_block_content(tracker_count=1)
        engine.report_btb1_miss(MissReport(search_address=BLOCK + 0x100,
                                           cycle=0))
        engine.flush()
        # The single tracker is still draining the source block when the
        # cross-block entry is delivered: no follow happens... unless the
        # delivery postdates the drain.  Either way the engine never
        # exceeds its tracker budget.
        assert engine.trackers.count == 1
        assert engine.followed_blocks <= 1

    def test_same_block_targets_not_followed(self):
        engine = make_engine(multi_block_transfer=True)
        engine.btb2.install(
            BTBEntry(address=BLOCK + 0x104, target=BLOCK + 0x200)
        )
        engine.report_btb1_miss(MissReport(search_address=BLOCK + 0x100,
                                           cycle=0))
        engine.flush()
        assert engine.followed_blocks == 0

    def test_followed_tracker_runs_full_search(self):
        engine = self._engine_with_cross_block_content(tracker_count=3)
        engine.report_btb1_miss(MissReport(search_address=BLOCK + 0x100,
                                           cycle=0))
        # Advance enough for the source block's first rows to deliver.
        engine.advance(40)
        follower = engine.trackers.find(OTHER_BLOCK)
        assert follower is not None
        assert follower.state is TrackerState.FULL


class TestSoftwarePreload:
    def test_preload_instruction_writes_btbp(self):
        engine = make_engine()
        hierarchy = engine.hierarchy
        entry = hierarchy.software_preload(BLOCK + 0x50, BLOCK + 0x90,
                                           BranchKind.UNCOND)
        assert hierarchy.btbp.lookup(BLOCK + 0x50) is entry
        assert hierarchy.btbp.writes_by_source[
            WriteSource.PRELOAD_INSTRUCTION
        ] == 1

    def test_preloaded_branch_predicts(self):
        engine = make_engine()
        hierarchy = engine.hierarchy
        hierarchy.software_preload(BLOCK + 0x50, BLOCK + 0x90,
                                   BranchKind.UNCOND)
        hit = hierarchy.first_hit_in_row(BLOCK + 0x40)
        assert hit is not None
        taken, target, _, _ = hierarchy.resolve_content(hit.entry)
        assert taken and target == BLOCK + 0x90
