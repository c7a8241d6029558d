"""Self-checks for the reference model's simple structures.

The reference predictor is the trusted side of the differential oracle,
so its own structures get direct unit coverage: the stamp-based LRU must
behave exactly like an LRU, the tagged tables like tagged tables.  The
cross-checks against the production engine live in
``test_differential.py``.
"""

import itertools

from repro.btb.entry import BTBEntry
from repro.core.config import ZEC12_CONFIG_2
from repro.isa.opcodes import BranchKind
from repro.oracle.reference import (
    RefBTB,
    RefEntry,
    RefFIT,
    RefHistory,
    RefPHT,
    RefSurpriseBHT,
    ReferencePredictor,
    WEAK_TAKEN,
    always_taken,
    static_guess,
)

ROW = 0x1000  # one 32-byte row; addresses ROW..ROW+31 share it


def entry(address: int, target: int = 0x2000) -> RefEntry:
    return RefEntry(address=address, target=target, kind=BranchKind.COND)


class TestRefBTBLRU:
    def test_install_then_lookup(self):
        btb = RefBTB(rows=4, ways=2)
        one = entry(ROW)
        assert btb.install(one) is None
        assert btb.lookup(ROW) is one
        assert btb.lookup(ROW + 2) is None

    def test_victim_is_least_recently_used(self):
        btb = RefBTB(rows=4, ways=2)
        first, second, third = entry(ROW), entry(ROW + 2), entry(ROW + 4)
        btb.install(first)
        btb.install(second)
        btb.touch(first)  # second is now LRU
        victim = btb.install(third)
        assert victim is second
        assert btb.evictions == 1

    def test_demote_marks_next_victim(self):
        btb = RefBTB(rows=4, ways=2)
        first, second, third = entry(ROW), entry(ROW + 2), entry(ROW + 4)
        btb.install(first)
        btb.install(second)  # second is MRU
        btb.demote(second)
        assert btb.install(third) is second

    def test_same_address_replaces_in_place(self):
        btb = RefBTB(rows=4, ways=2)
        btb.install(entry(ROW))
        replacement = entry(ROW, target=0x3000)
        assert btb.install(replacement) is None
        assert btb.installs == 1  # replacement is not a new install
        assert btb.lookup(ROW) is replacement

    def test_mru_first_orders_by_recency(self):
        btb = RefBTB(rows=4, ways=4)
        first, second = entry(ROW), entry(ROW + 2)
        btb.install(first)
        btb.install(second)
        btb.touch(first)
        assert btb.mru_first(ROW) == [first, second]
        assert btb.is_mru(first) and not btb.is_mru(second)

    def test_search_row_is_row_scoped_and_sorted(self):
        btb = RefBTB(rows=4, ways=4)
        inside_late = entry(ROW + 8)
        inside_early = entry(ROW + 2)
        btb.install(inside_late)
        btb.install(inside_early)
        btb.install(entry(ROW + 4 * 32 * 4))  # same index, different row tag
        assert btb.search_row(ROW) == [inside_early, inside_late]


class TestTaggedTables:
    def test_pht_tag_mismatch_returns_none(self):
        pht = RefPHT(entries=64)
        pht.update(ROW, index=5, taken=True)
        assert pht.predict(ROW, index=5) is True
        # Same index, different tag: a miss, and stats notice.
        assert pht.predict(ROW + 2, index=5) is None
        assert pht.tag_hits == 1 and pht.tag_misses == 1

    def test_pht_counter_saturates(self):
        pht = RefPHT(entries=64)
        pht.update(ROW, 3, taken=True)
        for _ in range(5):
            pht.update(ROW, 3, taken=False)
        assert pht.predict(ROW, 3) is False

    def test_fit_is_lru_bounded(self):
        fit = RefFIT(entries=2)
        fit.train(0x10, 1)
        fit.train(0x20, 2)
        assert fit.probe(0x10)  # moves 0x10 to MRU
        fit.train(0x30, 3)      # evicts 0x20
        assert not fit.probe(0x20)
        assert fit.probe(0x30)

    def test_surprise_bht_static_then_learned(self):
        bht = RefSurpriseBHT(entries=64)
        backward = True
        assert bht.guess(ROW, BranchKind.COND, backward) is True  # BTFNT
        bht.update(ROW, BranchKind.COND, taken=False)
        assert bht.guess(ROW, BranchKind.COND, backward) is False

    def test_kind_rules(self):
        assert always_taken(BranchKind.CALL)
        assert not always_taken(BranchKind.COND)
        assert static_guess(BranchKind.RETURN, backward=False)
        assert not static_guess(BranchKind.COND, backward=False)


class TestRefHistory:
    def test_depth_is_bounded(self):
        history = RefHistory()
        for i in range(40):
            history.record(ROW + 2 * i, taken=True)
        assert len(history.directions) == 12
        assert len(history.taken_addresses) == 12

    def test_indices_depend_on_path(self):
        one, two = RefHistory(), RefHistory()
        one.record(ROW, taken=True)
        two.record(ROW + 0x400, taken=True)
        assert one.ctb_index(4096) != two.ctb_index(4096)

    def test_not_taken_leaves_address_path_alone(self):
        history = RefHistory()
        history.record(ROW, taken=True)
        before = history.ctb_index(4096)
        history.record(ROW + 2, taken=False)
        assert history.ctb_index(4096) == before


class TestReferencePredictorShape:
    def test_state_dict_matches_production_schema(self):
        oracle = ReferencePredictor(ZEC12_CONFIG_2)
        state = oracle.state_dict()
        hierarchy = state["hierarchy"]
        assert set(hierarchy) >= {
            "btb1", "btbp", "pht", "ctb", "fit", "surprise_bht", "history",
            "btbp_promotions", "surprise_installs",
        }
        assert state["btb2"] is not None
        assert hierarchy["btb1"]["rows"] == []

    def test_entry_row_matches_an_equal_production_entry(self):
        for kind, counter, use_pht, use_ctb in itertools.product(
                BranchKind, range(4), (False, True), (False, True)):
            fields = dict(address=ROW + 6, target=0x2000, kind=kind,
                          counter=counter, use_pht=use_pht, use_ctb=use_ctb,
                          ctb_confidence=counter ^ 1, bimodal_misses=3,
                          target_misses=counter + 1)
            assert (RefEntry(**fields).state_dict()
                    == BTBEntry(**fields).state_dict())

    def test_entry_clone_is_equal_but_distinct(self):
        original = entry(ROW)
        original.counter = WEAK_TAKEN + 1
        copy = original.clone()
        assert copy is not original
        assert copy.state_dict() == original.state_dict()
