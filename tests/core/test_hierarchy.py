"""Tests for the first-level hierarchy wiring and move protocol."""

from hypothesis import example, given
from hypothesis import strategies as st

from repro.btb.btb2 import BTB2
from repro.btb.btbp import WriteSource
from repro.btb.entry import BTBEntry, STRONG_NOT_TAKEN
from repro.core.config import ExclusivityMode, PredictorConfig
from repro.core.events import PredictionLevel
from repro.core.hierarchy import FirstLevelPredictor, RowHit
from repro.isa.opcodes import BranchKind
from repro.trace.record import TraceRecord


def small_config(**overrides):
    defaults = dict(
        btb1_rows=8, btb1_ways=2, btbp_rows=8, btbp_ways=2,
        pht_entries=64, ctb_entries=64, fit_entries=4,
        surprise_bht_entries=64,
    )
    defaults.update(overrides)
    return PredictorConfig(**defaults)


def make_hierarchy(**overrides):
    config = small_config(**overrides)
    btb2 = BTB2(rows=8, ways=2) if config.btb2_enabled else None
    return FirstLevelPredictor(config, btb2=btb2)


def taken_record(address, target):
    return TraceRecord(address=address, length=4, kind=BranchKind.COND,
                       taken=True, target=target)


class TestParallelRead:
    def test_finds_btb1_entry(self):
        h = make_hierarchy()
        entry = BTBEntry(address=0x104, target=0x200)
        h.btb1.install(entry)
        (hit,) = h.hits_in_row(0x100)
        assert hit.entry is entry
        assert hit.level is PredictionLevel.BTB1

    def test_finds_btbp_entry(self):
        h = make_hierarchy()
        entry = BTBEntry(address=0x104, target=0x200)
        h.btbp.write(entry, WriteSource.SURPRISE)
        (hit,) = h.hits_in_row(0x100)
        assert hit.level is PredictionLevel.BTBP

    def test_btb1_wins_duplicates(self):
        h = make_hierarchy()
        h.btbp.write(BTBEntry(address=0x104, target=0x111), WriteSource.SURPRISE)
        h.btb1.install(BTBEntry(address=0x104, target=0x222))
        (hit,) = h.hits_in_row(0x100)
        assert hit.level is PredictionLevel.BTB1
        assert hit.entry.target == 0x222

    def test_filters_by_search_offset(self):
        h = make_hierarchy()
        h.btb1.install(BTBEntry(address=0x104, target=0x200))
        assert h.hits_in_row(0x108) == []

    def test_results_sorted_by_address(self):
        h = make_hierarchy()
        h.btb1.install(BTBEntry(address=0x118, target=0x1))
        h.btbp.write(BTBEntry(address=0x104, target=0x2), WriteSource.SURPRISE)
        hits = h.hits_in_row(0x100)
        assert [hit.entry.address for hit in hits] == [0x104, 0x118]

    def test_first_hit(self):
        h = make_hierarchy()
        h.btb1.install(BTBEntry(address=0x118, target=0x1))
        assert h.first_hit_in_row(0x100).entry.address == 0x118
        assert h.first_hit_in_row(0x120) is None


#: Row starts of two adjacent rows and of rows aliasing them in 8-row
#: structures, so entries share way lists without sharing a 32-byte row (in
#: 1-row structures every row aliases).
_ROWS = [0x100, 0x120, 0x100 + 8 * 32, 0x120 + 16 * 32]
_ADDRESSES = st.builds(lambda row, offset: row + offset,
                       st.sampled_from(_ROWS), st.sampled_from([0, 4, 8, 30]))
_OPS = st.lists(
    st.tuples(st.sampled_from(["btb1", "btbp", "touch1", "touchp"]),
              _ADDRESSES),
    max_size=24,
)


def _same_hit(a, b):
    if a is None or b is None:
        return a is b
    return (a.entry is b.entry and a.level is b.level
            and a.from_mru == b.from_mru)


@given(ops=_OPS, probes=st.lists(_ADDRESSES, min_size=1, max_size=8),
       rows=st.sampled_from([1, 8]), btbp_enabled=st.booleans())
# The next row's first byte shares a 1-row way list but not the row.
@example(ops=[("btbp", 0x120)], probes=[0x11E], rows=1, btbp_enabled=True)
@example(ops=[("btb1", 0x120)], probes=[0x11E], rows=1, btbp_enabled=True)
# A BTB1/BTBP tie behind a BTBP-only hit the BTB1 copy must not shadow.
@example(ops=[("btbp", 0x104), ("btb1", 0x108), ("btbp", 0x108)],
         probes=[0x100], rows=8, btbp_enabled=True)
def test_first_hit_is_the_head_of_hits_in_row(ops, probes, rows,
                                              btbp_enabled):
    """The single-scan probe equals the full row search's first hit.

    Installs draw from a small pool, so the same address lands in both the
    BTB1 and the BTBP (a tie the BTB1 wins), and aliasing rows share a way
    list the row tag must filter.  Touches reorder the ways, moving MRU.
    """
    h = make_hierarchy(btb1_rows=rows, btb1_ways=3, btbp_rows=rows,
                       btbp_ways=3, btbp_enabled=btbp_enabled)
    for op, address in ops:
        if op == "btb1":
            h.btb1.install(BTBEntry(address=address, target=0x4000))
        elif op == "btbp" and h.btbp is not None:
            h.btbp.write(BTBEntry(address=address, target=0x5000),
                         WriteSource.SURPRISE)
        elif op == "touch1" and h.btb1.lookup(address) is not None:
            h.btb1.touch(h.btb1.lookup(address))
        elif op == "touchp" and h.btbp is not None \
                and h.btbp.lookup(address) is not None:
            h.btbp.touch(h.btbp.lookup(address))
    for probe in probes + [address for _, address in ops]:
        expected = (h.hits_in_row(probe) or [None])[0]
        assert _same_hit(h.first_hit_in_row(probe), expected)


class TestMoveProtocol:
    def test_btbp_prediction_promotes_to_btb1(self):
        h = make_hierarchy()
        entry = BTBEntry(address=0x104, target=0x200)
        h.btbp.write(entry, WriteSource.SURPRISE)
        h.use_prediction(RowHit(entry, PredictionLevel.BTBP, False))
        assert h.btb1.lookup(0x104) is entry
        assert h.btbp.lookup(0x104) is None
        assert h.btbp_promotions == 1

    def test_btb1_victim_flows_to_btbp_and_btb2(self):
        h = make_hierarchy()
        # Fill the BTB1 row so promotion evicts a victim.
        v1 = BTBEntry(address=0x100, target=0x1)
        v2 = BTBEntry(address=0x108, target=0x2)
        h.btb1.install(v1)
        h.btb1.install(v2)
        promoted = BTBEntry(address=0x110, target=0x3)
        h.btbp.write(promoted, WriteSource.BTB2_HIT)
        h.use_prediction(RowHit(promoted, PredictionLevel.BTBP, False))
        # v1 was LRU: it must now be in the BTBP and the BTB2.
        assert h.btbp.lookup(0x100) is v1
        assert h.btb2.lookup(0x100) is not None
        assert h.btb2.victim_writes == 1

    def test_btb1_prediction_refreshes_mru(self):
        h = make_hierarchy()
        a = BTBEntry(address=0x100, target=0x1)
        b = BTBEntry(address=0x108, target=0x2)
        h.btb1.install(a)
        h.btb1.install(b)  # MRU=b
        h.use_prediction(RowHit(a, PredictionLevel.BTB1, False))
        assert h.btb1.is_mru(a)

    def test_no_victim_writeback_mode(self):
        h = make_hierarchy(exclusivity=ExclusivityMode.NO_VICTIM_WRITEBACK)
        h.btb1.install(BTBEntry(address=0x100, target=0x1))
        h.btb1.install(BTBEntry(address=0x108, target=0x2))
        promoted = BTBEntry(address=0x110, target=0x3)
        h.btbp.write(promoted, WriteSource.BTB2_HIT)
        h.use_prediction(RowHit(promoted, PredictionLevel.BTBP, False))
        assert h.btb2.victim_writes == 0


class TestInstalls:
    def test_surprise_install_writes_btbp_and_btb2(self):
        h = make_hierarchy()
        record = taken_record(0x104, 0x300)
        entry = h.surprise_install(record)
        assert h.btbp.lookup(0x104) is entry
        assert h.btb2.lookup(0x104) is not None
        assert h.btb2.lookup(0x104) is not entry  # clone in the BTB2
        assert h.surprise_installs == 1

    def test_surprise_install_without_btb2(self):
        h = make_hierarchy(btb2_enabled=False)
        h.btb2 = None
        record = taken_record(0x104, 0x300)
        h.surprise_install(record)
        assert h.btbp.lookup(0x104) is not None

    def test_btbp_disabled_surprises_go_to_btb1(self):
        h = make_hierarchy(btbp_enabled=False)
        record = taken_record(0x104, 0x300)
        h.surprise_install(record)
        assert h.btbp is None
        assert h.btb1.lookup(0x104) is not None

    def test_preload_write_lands_in_btbp(self):
        h = make_hierarchy()
        h.preload_write(BTBEntry(address=0x104, target=0x300))
        assert h.btbp.lookup(0x104) is not None
        assert h.btbp.writes_by_source[WriteSource.BTB2_HIT] == 1


class TestContentResolution:
    def test_bimodal_drives_direction_and_target(self):
        h = make_hierarchy()
        entry = BTBEntry(address=0x104, target=0x300)
        taken, target, used_pht, used_ctb = h.resolve_content(entry)
        assert taken
        assert target == 0x300
        assert not used_pht and not used_ctb

    def test_not_taken_has_no_target(self):
        h = make_hierarchy()
        entry = BTBEntry(address=0x104, target=0x300, counter=STRONG_NOT_TAKEN)
        taken, target, _, _ = h.resolve_content(entry)
        assert not taken
        assert target is None

    def test_pht_overrides_bimodal_when_enabled_and_tagged(self):
        h = make_hierarchy()
        entry = BTBEntry(address=0x104, target=0x300, use_pht=True)
        h.pht.update(0x104, h.history, taken=False)
        h.pht.update(0x104, h.history, taken=False)
        taken, _, used_pht, _ = h.resolve_content(entry)
        assert used_pht
        assert not taken

    def test_pht_ignored_without_control_bit(self):
        h = make_hierarchy()
        entry = BTBEntry(address=0x104, target=0x300)
        h.pht.update(0x104, h.history, taken=False)
        h.pht.update(0x104, h.history, taken=False)
        taken, _, used_pht, _ = h.resolve_content(entry)
        assert taken and not used_pht  # bimodal wins

    def test_ctb_overrides_target_when_trusted(self):
        h = make_hierarchy()
        entry = BTBEntry(address=0x104, target=0x300, use_ctb=True)
        h.ctb.update(0x104, h.history, target=0x500)
        _, target, _, used_ctb = h.resolve_content(entry)
        assert used_ctb
        assert target == 0x500

    def test_ctb_ignored_when_confidence_low(self):
        h = make_hierarchy()
        entry = BTBEntry(address=0x104, target=0x300, use_ctb=True,
                         ctb_confidence=0)
        h.ctb.update(0x104, h.history, target=0x500)
        _, target, _, used_ctb = h.resolve_content(entry)
        assert target == 0x300 and not used_ctb


class TestTraining:
    def test_train_updates_counter_and_target(self):
        h = make_hierarchy()
        entry = BTBEntry(address=0x104, target=0x300)
        h.train(entry, taken_record(0x104, 0x400))
        assert entry.target == 0x400

    def test_resolved_branch_feeds_history_and_surprise_bht(self):
        h = make_hierarchy()
        record = taken_record(0x104, 0x400)
        h.record_resolved_branch(record)
        _, addresses = h.history.snapshot()
        assert addresses == (0x104,)

    def test_probe_level(self):
        h = make_hierarchy()
        assert h.probe_level(0x104) is None
        h.btbp.write(BTBEntry(address=0x104, target=0x1), WriteSource.SURPRISE)
        assert h.probe_level(0x104) is PredictionLevel.BTBP
        h.btb1.install(BTBEntry(address=0x104, target=0x1))
        assert h.probe_level(0x104) is PredictionLevel.BTB1
