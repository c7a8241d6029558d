"""Tests for the ordering table and BTB2 search steering (section 3.7)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.isa.address import SECTORS_PER_BLOCK
from repro.preload.ordering import (
    OrderingEntry,
    OrderingTable,
    OrderingTracker,
    classify_sectors,
    order_sectors,
)

BLOCK = 0x40_0000


class TestOrderingEntry:
    def test_mark_and_query_sectors(self):
        entry = OrderingEntry(block=BLOCK)
        entry.mark_sector(5)
        assert entry.sector_active(5)
        assert not entry.sector_active(6)

    def test_references(self):
        entry = OrderingEntry(block=BLOCK)
        entry.mark_reference(0, 2)
        assert entry.referenced_from(0) == {2}
        assert entry.referenced_from(2) == set()

    def test_self_reference_ignored(self):
        entry = OrderingEntry(block=BLOCK)
        entry.mark_reference(1, 1)
        assert entry.referenced_from(1) == set()

    def test_merge_is_bitwise_or(self):
        a = OrderingEntry(block=BLOCK)
        a.mark_sector(1)
        a.mark_reference(0, 1)
        b = OrderingEntry(block=BLOCK)
        b.mark_sector(2)
        b.mark_reference(0, 3)
        a.merge(b)
        assert a.sector_active(1) and a.sector_active(2)
        assert a.referenced_from(0) == {1, 3}

    def test_copy_is_independent(self):
        entry = OrderingEntry(block=BLOCK)
        copy = entry.copy()
        copy.mark_sector(3)
        assert not entry.sector_active(3)


class TestOrderingTable:
    def test_miss_then_hit(self):
        table = OrderingTable(sets=4, ways=2)
        assert table.lookup(BLOCK) is None
        table.store(OrderingEntry(block=BLOCK))
        assert table.lookup(BLOCK) is not None
        assert table.hits == 1 and table.misses == 1

    def test_store_merges_existing(self):
        table = OrderingTable(sets=4, ways=2)
        first = OrderingEntry(block=BLOCK)
        first.mark_sector(1)
        table.store(first)
        second = OrderingEntry(block=BLOCK)
        second.mark_sector(2)
        table.store(second)
        merged = table.lookup(BLOCK)
        assert merged.sector_active(1) and merged.sector_active(2)

    def test_two_way_lru_eviction(self):
        table = OrderingTable(sets=1, ways=2)
        blocks = [0x1000, 0x2000, 0x3000]
        for block in blocks:
            table.store(OrderingEntry(block=block))
        assert table.lookup(0x1000) is None
        assert table.lookup(0x2000) is not None
        assert table.lookup(0x3000) is not None

    def test_architected_capacity(self):
        table = OrderingTable()
        assert table.capacity == 512

    def test_lookup_by_inner_address(self):
        table = OrderingTable(sets=4, ways=2)
        table.store(OrderingEntry(block=BLOCK))
        assert table.lookup(BLOCK + 0x123) is not None


class TestOrderingTracker:
    def test_marks_sectors_of_completing_instructions(self):
        table = OrderingTable(sets=64, ways=2)
        tracker = OrderingTracker(table)
        tracker.observe(BLOCK + 0x80)   # sector 1
        tracker.observe(BLOCK + 0x900)  # sector 18, quartile 2
        tracker.flush()
        entry = table.lookup(BLOCK)
        assert entry.sector_active(1)
        assert entry.sector_active(18)

    def test_records_quartile_references_from_demand(self):
        table = OrderingTable(sets=64, ways=2)
        tracker = OrderingTracker(table)
        tracker.observe(BLOCK + 0x000)   # enter at quartile 0 (demand)
        tracker.observe(BLOCK + 0xC00)   # move to quartile 3
        tracker.flush()
        assert table.lookup(BLOCK).referenced_from(0) == {3}

    def test_commit_on_block_change(self):
        table = OrderingTable(sets=64, ways=2)
        tracker = OrderingTracker(table)
        tracker.observe(BLOCK)
        tracker.observe(BLOCK + 0x10_000)  # different block commits previous
        assert table.lookup(BLOCK) is not None

    def test_revisit_merges_new_paths(self):
        table = OrderingTable(sets=64, ways=2)
        tracker = OrderingTracker(table)
        tracker.observe(BLOCK + 0x80)
        tracker.observe(BLOCK + 0x10_000)
        tracker.observe(BLOCK + 0x200)
        tracker.flush()
        entry = table.lookup(BLOCK)
        assert entry.sector_active(1) and entry.sector_active(4)

    def test_repeat_in_the_last_sector_changes_nothing(self):
        table = OrderingTable(sets=64, ways=2)
        tracker = OrderingTracker(table)
        tracker.observe(BLOCK + 0x80)
        state = tracker.state_dict()
        tracker.observe(BLOCK + 0x84)
        tracker.observe(BLOCK + 0xFE)
        assert tracker.state_dict() == state

    def test_flush_forgets_the_last_sector(self):
        table = OrderingTable(sets=64, ways=2)
        tracker = OrderingTracker(table)
        tracker.observe(BLOCK + 0x80)
        tracker.flush()
        # Same sector as the last observe: the flushed entry is gone, so a
        # new pending entry must open.
        tracker.observe(BLOCK + 0x84)
        assert tracker.state_dict()["pending"] == {
            "block": BLOCK, "sector_bits": 1 << 1, "quartile_refs": [0] * 4,
        }

    def test_restore_forgets_the_last_sector(self):
        table = OrderingTable(sets=64, ways=2)
        empty = OrderingTracker(table).state_dict()
        tracker = OrderingTracker(table)
        tracker.observe(BLOCK + 0x80)
        tracker.load_state_dict(empty)
        tracker.observe(BLOCK + 0x84)
        assert tracker.state_dict()["pending"] == {
            "block": BLOCK, "sector_bits": 1 << 1, "quartile_refs": [0] * 4,
        }


class TestSteering:
    def test_fallback_is_sequential_from_demand(self):
        order = order_sectors(None, BLOCK + 0x280)  # demand sector 5
        assert order[0] == 5
        assert order == [(5 + i) % 32 for i in range(32)]

    def test_active_demand_quartile_first(self):
        entry = OrderingEntry(block=BLOCK)
        entry.mark_sector(3)    # demand quartile (0)
        entry.mark_sector(20)   # quartile 2, unreferenced
        entry.mark_reference(0, 1)
        entry.mark_sector(9)    # quartile 1, referenced
        order = order_sectors(entry, BLOCK)  # demand sector 0, quartile 0
        assert order.index(3) < order.index(9) < order.index(20)

    def test_active_before_inactive(self):
        entry = OrderingEntry(block=BLOCK)
        entry.mark_sector(20)  # active, far quartile
        order = order_sectors(entry, BLOCK)
        inactive_demand = order.index(0)  # inactive sector in demand quartile
        assert order.index(20) < inactive_demand

    def test_classes_match_paper_priorities(self):
        entry = OrderingEntry(block=BLOCK)
        entry.mark_sector(1)
        entry.mark_reference(0, 2)
        entry.mark_sector(17)  # active in referenced quartile 2
        entry.mark_sector(30)  # active in unreferenced quartile 3
        classes = dict(classify_sectors(entry, BLOCK))
        assert classes[1] == 0    # active, demand quartile
        assert classes[17] == 1   # active, referenced quartile
        assert classes[30] == 2   # active, other quartile
        assert classes[0] == 3    # inactive, demand quartile
        assert classes[16] == 4   # inactive, referenced quartile
        assert classes[24] == 5   # inactive, other quartile

    @given(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=4095),
    )
    def test_order_is_a_permutation(self, sector_bits, offset):
        entry = OrderingEntry(block=BLOCK, sector_bits=sector_bits)
        order = order_sectors(entry, BLOCK + offset)
        assert sorted(order) == list(range(SECTORS_PER_BLOCK))

    @given(st.integers(min_value=0, max_value=4095))
    def test_fallback_order_is_a_permutation(self, offset):
        order = order_sectors(None, BLOCK + offset)
        assert sorted(order) == list(range(SECTORS_PER_BLOCK))
