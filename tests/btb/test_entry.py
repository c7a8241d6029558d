"""Tests for BTB entries: bimodal counter, PHT/CTB control bits, confidence."""

import itertools
import json

from hypothesis import given
from hypothesis import strategies as st

from repro.btb.entry import (
    BTBEntry,
    STRONG_NOT_TAKEN,
    STRONG_TAKEN,
    WEAK_NOT_TAKEN,
    WEAK_TAKEN,
)
from repro.isa.opcodes import BranchKind


def entry(**kwargs):
    defaults = dict(address=0x100, target=0x200)
    defaults.update(kwargs)
    return BTBEntry(**defaults)


class TestBimodal:
    def test_fresh_entry_predicts_taken(self):
        assert entry().predict_taken

    def test_counter_saturates_up(self):
        e = entry(counter=STRONG_TAKEN)
        e.update_direction(True)
        assert e.counter == STRONG_TAKEN

    def test_counter_saturates_down(self):
        e = entry(counter=STRONG_NOT_TAKEN)
        e.update_direction(False)
        assert e.counter == STRONG_NOT_TAKEN

    def test_two_not_takens_flip_prediction(self):
        e = entry(counter=STRONG_TAKEN)
        e.update_direction(False)
        assert e.predict_taken
        e.update_direction(False)
        e.update_direction(False)
        assert not e.predict_taken

    def test_hysteresis(self):
        e = entry(counter=WEAK_TAKEN)
        e.update_direction(False)
        assert e.counter == WEAK_NOT_TAKEN

    @given(st.lists(st.booleans(), max_size=60))
    def test_counter_stays_in_range(self, outcomes):
        e = entry()
        for taken in outcomes:
            e.update_direction(taken)
            assert STRONG_NOT_TAKEN <= e.counter <= STRONG_TAKEN


class TestPHTEnable:
    def test_single_mispredict_does_not_enable(self):
        e = entry(counter=STRONG_TAKEN)
        e.update_direction(False)
        assert not e.use_pht

    def test_accumulated_mispredicts_enable(self):
        # Non-consecutive misses still count: loop-exit behaviour.
        e = entry(counter=STRONG_TAKEN)
        e.update_direction(False)  # miss 1
        e.update_direction(True)
        e.update_direction(True)
        e.update_direction(True)
        e.update_direction(False)  # miss 2 -> PHT
        assert e.use_pht

    def test_use_pht_is_sticky(self):
        e = entry(use_pht=True)
        for _ in range(10):
            e.update_direction(True)
        assert e.use_pht


class TestTargetAndCTB:
    def test_stable_target_keeps_ctb_off(self):
        e = entry()
        for _ in range(5):
            e.update_target(0x200)
        assert not e.use_ctb

    def test_changing_target_enables_ctb(self):
        e = entry()
        e.update_target(0x300)
        assert e.use_ctb
        assert e.target == 0x300

    def test_return_kind_enables_ctb_on_first_change(self):
        e = entry(kind=BranchKind.RETURN)
        e.update_target(0x400)
        assert e.use_ctb

    def test_trust_ctb_requires_confidence(self):
        e = entry(use_ctb=True, ctb_confidence=2)
        assert e.trust_ctb
        e.update_ctb_confidence(False)
        assert not e.trust_ctb

    def test_confidence_saturates(self):
        e = entry()
        for _ in range(6):
            e.update_ctb_confidence(True)
        assert e.ctb_confidence == 3
        for _ in range(6):
            e.update_ctb_confidence(False)
        assert e.ctb_confidence == 0

    def test_confidence_recovers(self):
        e = entry(use_ctb=True, ctb_confidence=0)
        e.update_ctb_confidence(True)
        e.update_ctb_confidence(True)
        assert e.trust_ctb


class TestClone:
    def test_clone_is_deep_and_equal(self):
        e = entry(use_pht=True, use_ctb=True, counter=STRONG_TAKEN,
                  ctb_confidence=1)
        c = e.clone()
        assert c is not e
        assert c == e

    def test_clone_diverges_independently(self):
        e = entry()
        c = e.clone()
        c.update_direction(False)
        c.update_direction(False)
        assert e.counter == WEAK_TAKEN
        assert c.counter != e.counter


class TestStateRow:
    """Schema v2: an entry snapshots to one positional row and back."""

    def test_row_is_the_field_order(self):
        e = entry(kind=BranchKind.RETURN, counter=STRONG_NOT_TAKEN,
                  use_pht=True, ctb_confidence=1, bimodal_misses=5,
                  target_misses=7)
        assert e.state_dict() == [0x100, 0x200, "RETURN", STRONG_NOT_TAKEN,
                                  True, False, 1, 5, 7]

    @given(
        address=st.integers(0, 2**64 - 1),
        target=st.integers(0, 2**64 - 1),
        ctb_confidence=st.integers(0, 3),
        bimodal_misses=st.integers(0, 2**31),
        target_misses=st.integers(0, 2**31),
    )
    def test_round_trip_directly_and_through_json(self, **fields):
        """Every kind x counter x flag combination, around drawn values."""
        for kind, counter, use_pht, use_ctb in itertools.product(
                BranchKind, range(4), (False, True), (False, True)):
            e = BTBEntry(kind=kind, counter=counter, use_pht=use_pht,
                         use_ctb=use_ctb, **fields)
            assert BTBEntry.from_state_dict(e.state_dict()) == e
            assert BTBEntry.from_state_dict(
                json.loads(json.dumps(e.state_dict()))) == e
