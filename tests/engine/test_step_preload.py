"""``Simulator.step``'s per-record preload shortcuts against the rule they replace.

Once per record ``step`` advances the preload engine to the decode clock
and feeds the completing instruction to the ordering tracker.  It skips
the advance while the engine is idle (raising the transfer clock itself)
and skips the tracker for an address in its last sector.  ``ReferenceStep``
keeps the rule those shortcuts replace: ``PreloadEngine.advance`` and
``observe_completion`` on every record.  The full ``state_dict()`` must
match after every record: the goldens never read the transfer clock, but
checkpoints do, and a BLOCK-mode wait that expires a record late can still
be upgraded by an i-cache miss that should have found it gone.
"""

from __future__ import annotations

import math

import pytest

from repro.audit.fuzz import FUZZ_CONFIGS, build_trace
from repro.core.config import ZEC12_CONFIG_2, FilterMode
from repro.engine.simulator import Simulator


class ReferenceStep(Simulator):
    """``Simulator`` with the per-record preload calls of the full rule."""

    def step(self, record):
        address = record.address
        if not self._started:
            self.search.restart(address, 0)
            self._started = True
        elif address != self._expected_address:
            self.counters.context_switches += 1
            self.search.restart(address, math.ceil(self._cycle))
            self._current_line = -1
            self._line_fills.clear()
        self._expected_address = record.next_address
        self.counters.instructions += 1
        self._cycle += self._base_decode_cycles
        preload = self.preload
        if preload is not None:
            preload.advance(int(self._cycle))
        line = address & self._line_mask
        if line != self._current_line:
            self._fetch(address, line)
        if record.kind is not None:
            self._branch(record)
        if preload is not None:
            preload.observe_completion(address)


#: (config, trace seeds): config 2 itself, then small-geometry variants
#: (the fuzz harness's, whose pressure keeps the BTB2 busy within a short
#: trace) for the BLOCK filter, steering off, and multi-block transfer,
#: whose followed-block trackers are allocated at ``transfer.clock``.
CASES = (
    (ZEC12_CONFIG_2, (6,)),
    (FUZZ_CONFIGS["filter block"], (5, 6)),
    (FUZZ_CONFIGS["no steering"], (5, 6)),
    (FUZZ_CONFIGS["multi block transfer"], (5, 6)),
)
TRACE_LENGTH = 1200


@pytest.mark.parametrize(
    "config, seed",
    [(config, seed) for config, seeds in CASES for seed in seeds],
    ids=lambda value: getattr(value, "name", value),
)
def test_state_matches_the_full_rule_after_every_record(config, seed):
    trace = build_trace(seed, TRACE_LENGTH)
    sim = Simulator(config=config)
    ref = ReferenceStep(config=config)
    idle_steps = 0
    for index, record in enumerate(trace):
        idle_steps += sim.preload.idle()
        sim.step(record)
        ref.step(record)
        assert sim.state_dict() == ref.state_dict(), (
            f"state diverged at record {index} ({record.address:#x})"
        )
    assert sim.finish() == ref.finish()
    assert sim.state_dict() == ref.state_dict()
    # The trace exercised both branches of the shortcut and real BTB2
    # traffic, so the comparison above is not vacuous.
    preload = sim.preload
    assert 0 < idle_steps < len(trace)
    assert preload.transfer.entries_transferred > 0
    if config.filter_mode is FilterMode.BLOCK:
        assert preload.partial_invalidations > 0  # BLOCK waits expired
    if config.multi_block_transfer:
        assert preload.followed_blocks > 0
