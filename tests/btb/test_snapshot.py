"""Columnar table snapshots (state schema v3) through the checkpoint codec.

Every table that writes columns — the BTB levels, the PHT, the CTB and
the surprise BHT — must come back from ``state_dict`` -> ``save_state`` ->
``load_state`` -> ``load_state_dict`` with an equal ``state_dict()`` and
equal live contents, whatever its entries hold.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.btb.ctb import CTB
from repro.btb.entry import STATE_FIELDS, BTBEntry
from repro.btb.history import PathHistory
from repro.btb.pht import PHT
from repro.btb.storage import BranchTargetBuffer
from repro.btb.surprise import SurpriseBHT
from repro.isa.opcodes import BranchKind
from repro.sampling import load_state, save_state

#: A small geometry: drawn addresses alias rows and fill them, and a full
#: table (96 entries) holds columns long enough for raw sections.
ROWS, WAYS = 32, 3

#: Row-aliasing addresses (the same row of a ``ROWS``-row table, every
#: 32-byte granule apart), plus the two ends of the 64-bit space.
ADDRESSES = st.one_of(
    st.sampled_from((0, 2**64 - 2, 2**64 - 1)),
    st.integers(0, 63).map(lambda slot: slot * 32 * ROWS + 6),
    st.integers(0, 2**64 - 1),
)

#: Any 64-bit value: a hundred addresses drawn from it fill most of the
#: table.
SPREAD = st.integers(0, 2**64 - 1)


def entries_at(addresses):
    """BTB entries at ``addresses`` with every field drawn."""
    return st.builds(
        BTBEntry,
        address=addresses,
        target=st.sampled_from((0, 2**64 - 1)) | SPREAD,
        kind=st.sampled_from(list(BranchKind)),
        counter=st.integers(0, 3),
        use_pht=st.booleans(),
        use_ctb=st.booleans(),
        ctb_confidence=st.integers(0, 3),
        bimodal_misses=st.integers(0, 2**63 - 1),
        target_misses=st.integers(0, 2**63 - 1),
    )


#: Install sequences: short ones that alias and overfill rows, and long
#: ones that fill the table past section length.
INSTALLS = (st.lists(entries_at(ADDRESSES), max_size=40)
            | st.lists(entries_at(SPREAD), min_size=90, max_size=120))


def updates_of(value):
    """Tagged-table updates: (address, path, ``value``), short or long."""
    update = st.tuples(ADDRESSES, st.lists(ADDRESSES, max_size=4), value)
    spread = st.tuples(SPREAD, st.lists(SPREAD, min_size=1, max_size=4),
                       value)
    return (st.lists(update, max_size=40)
            | st.lists(spread, min_size=120, max_size=150))


#: ``tmp_path`` is reused across examples: every save overwrites one file.
REUSED_TMP = settings(
    suppress_health_check=[HealthCheck.function_scoped_fixture])


def through_checkpoint(state: dict, tmp_path) -> dict:
    """``state`` after a save to and a load from a checkpoint file."""
    path = tmp_path / "ckpt-table.json.gz"
    save_state(path, state)
    return load_state(path)


def rows_of(btb: BranchTargetBuffer) -> list[list[BTBEntry]]:
    """Every row's entries, MRU first."""
    return [list(ways) for ways in btb._rows]


class TestBTBTable:
    @REUSED_TMP
    @given(entries=INSTALLS)
    def test_round_trip_keeps_rows_entries_and_mru_order(
            self, entries, tmp_path):
        btb = BranchTargetBuffer(rows=ROWS, ways=WAYS)
        for entry in entries:
            btb.install(entry)
        state = btb.state_dict()
        restored = BranchTargetBuffer(rows=ROWS, ways=WAYS)
        restored.load_state_dict(through_checkpoint(state, tmp_path))
        assert restored.state_dict() == state
        assert rows_of(restored) == rows_of(btb)
        assert (restored.installs, restored.evictions) == (
            btb.installs, btb.evictions)
        # Fresh objects: a restore never shares an entry with its source.
        assert not {id(e) for e in restored} & {id(e) for e in btb}

    @REUSED_TMP
    @given(address=ADDRESSES, target=SPREAD,
           ctb_confidence=st.integers(0, 3),
           bimodal_misses=st.integers(0, 2**63 - 1),
           target_misses=st.integers(0, 2**63 - 1))
    def test_every_kind_counter_and_flag_round_trips(self, tmp_path,
                                                     **fields):
        """Every kind x counter x flag combination, around drawn values.

        One entry per combination, each in a row of its own, so the table
        holds all 80 of them at once.
        """
        combinations = list(itertools.product(
            BranchKind, range(4), (False, True), (False, True)))
        btb = BranchTargetBuffer(rows=128, ways=1)
        for row, (kind, counter, use_pht, use_ctb) in enumerate(combinations):
            btb.install(BTBEntry(
                **dict(fields, address=(fields["address"] & ~(128 * 32 - 1))
                       | (row << 5)),
                kind=kind, counter=counter, use_pht=use_pht,
                use_ctb=use_ctb))
        assert len(btb) == len(combinations)
        restored = BranchTargetBuffer(rows=128, ways=1)
        restored.load_state_dict(through_checkpoint(btb.state_dict(),
                                                    tmp_path))
        assert rows_of(restored) == rows_of(btb)

    def test_empty_table(self, tmp_path):
        btb = BranchTargetBuffer(rows=ROWS, ways=WAYS)
        state = btb.state_dict()
        assert state["rows"] == state["ways"] == []
        assert state["entries"] == {name: [] for name in STATE_FIELDS}
        restored = BranchTargetBuffer(rows=ROWS, ways=WAYS)
        restored.install(BTBEntry(address=0x40, target=0))
        restored.load_state_dict(through_checkpoint(state, tmp_path))
        assert len(restored) == 0

    def test_layout_is_rows_ways_and_one_column_per_field(self):
        btb = BranchTargetBuffer(rows=ROWS, ways=WAYS)
        first = BTBEntry(address=0x20, target=0x400, kind=BranchKind.CALL)
        second = BTBEntry(address=0x24, target=0x800, use_ctb=True)
        aliased = BTBEntry(address=0x20 + ROWS * 32, target=0)
        for entry in (first, second, aliased):
            btb.install(entry)
        state = btb.state_dict()
        assert state["rows"] == [1]
        assert state["ways"] == [3]
        assert list(state["entries"]) == list(STATE_FIELDS)
        # MRU first: the last install leads its row.
        assert state["entries"]["address"] == [aliased.address, 0x24, 0x20]
        assert state["entries"]["kind"] == ["COND", "COND", "CALL"]
        assert state["entries"]["use_ctb"] == [False, True, False]
        assert [list(row) for row in zip(*state["entries"].values())] == [
            entry.state_dict() for entry in (aliased, second, first)]

    @pytest.mark.parametrize("damage", [
        lambda state: state["entries"]["target"].pop(),
        lambda state: state["ways"].append(1),
        lambda state: state["ways"].__setitem__(0, 3),
    ])
    def test_columns_that_disagree_with_the_rows_are_refused(self, damage):
        btb = BranchTargetBuffer(rows=ROWS, ways=WAYS)
        btb.install(BTBEntry(address=0x20, target=0))
        btb.install(BTBEntry(address=0x44, target=0))
        state = btb.state_dict()
        damage(state)
        with pytest.raises(ValueError, match="entry columns disagree"):
            BranchTargetBuffer(rows=ROWS, ways=WAYS).load_state_dict(state)


def history_after(addresses: list[int]) -> PathHistory:
    """A path history that has seen ``addresses`` resolve taken."""
    history = PathHistory()
    for address in addresses:
        history.record(address, taken=True)
    return history


class TestTaggedTables:
    @REUSED_TMP
    @given(updates=updates_of(st.booleans()))
    def test_pht_round_trip(self, updates, tmp_path):
        pht = PHT(entries=256)
        for address, path, taken in updates:
            pht.update(address, history_after(path), taken)
        state = pht.state_dict()
        restored = PHT(entries=256)
        restored.load_state_dict(through_checkpoint(state, tmp_path))
        assert restored.state_dict() == state
        assert restored._table == pht._table

    @REUSED_TMP
    @given(updates=updates_of(SPREAD))
    def test_ctb_round_trip(self, updates, tmp_path):
        ctb = CTB(entries=256)
        for address, path, target in updates:
            ctb.update(address, history_after(path), target)
        state = ctb.state_dict()
        restored = CTB(entries=256)
        restored.load_state_dict(through_checkpoint(state, tmp_path))
        assert restored.state_dict() == state
        assert restored._table == ctb._table

    @REUSED_TMP
    @given(updates=st.lists(st.tuples(ADDRESSES, st.booleans()),
                            max_size=40)
           | st.lists(st.tuples(SPREAD, st.booleans()), min_size=150,
                      max_size=200))
    def test_surprise_bht_round_trip_keeps_false_bits(self, updates,
                                                      tmp_path):
        bht = SurpriseBHT(entries=256)
        for address, taken in updates:
            bht.update(address, BranchKind.COND, taken)
        state = bht.state_dict()
        restored = SurpriseBHT(entries=256)
        restored.load_state_dict(through_checkpoint(state, tmp_path))
        assert restored.state_dict() == state
        assert restored._bits == bht._bits

    def test_columns_hold_false_bits_and_sorted_indices(self, tmp_path):
        bht = SurpriseBHT(entries=256)
        for index in range(100):  # long enough for an index section
            bht.update(index << 1, BranchKind.COND, index % 3 == 0)
        state = bht.state_dict()
        assert state["bits"]["index"] == list(range(100))
        assert state["bits"]["bit"] == [i % 3 == 0 for i in range(100)]
        restored = SurpriseBHT(entries=256)
        restored.load_state_dict(through_checkpoint(state, tmp_path))
        assert restored._bits == bht._bits
        assert list(restored._bits.values()).count(False) == 66

    @pytest.mark.parametrize("kind", [PHT, CTB])
    def test_tagged_columns_of_unequal_length_are_refused(self, kind):
        table = kind(entries=64)
        table.update(0x20, history_after([0x40]), 1)
        state = table.state_dict()
        state["table"]["index"].append(7)
        with pytest.raises(ValueError):
            kind(entries=64).load_state_dict(state)
