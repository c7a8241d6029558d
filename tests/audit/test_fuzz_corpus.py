"""Fuzz-corpus wiring: named seed families and the planted-bug workflow.

The fuzz harness accepts a ``corpus`` selecting the trace seed family
(random program walks, adversarial BTB probes, or a parity mix); this
file checks the wiring and then proves the whole pipeline — corpus,
audited run, ddmin shrink — by planting an aliasing bug in the BTB's
install tag comparator and demanding the harness catch it and minimize
the failing trace.
"""

import pytest

from repro.audit.fuzz import (
    CORPUS_NAMES,
    FUZZ_CONFIGS,
    build_trace,
    corpus_builder,
    fuzz,
    render_failure,
    run_case,
    shrink,
)
from repro.btb.storage import BranchTargetBuffer
from repro.workloads.adversarial import corpus_trace

SMALL = {"small baseline": FUZZ_CONFIGS["small baseline"]}


class TestCorpusWiring:
    def test_known_corpus_names(self):
        assert CORPUS_NAMES == ("random", "adversarial", "mixed")

    def test_random_is_the_historical_builder(self):
        assert corpus_builder("random")(5, 120) == build_trace(5, 120)

    def test_adversarial_draws_from_the_probe_families(self):
        assert corpus_builder("adversarial")(5, 120) == corpus_trace(5, 120)

    def test_mixed_alternates_by_seed_parity(self):
        mixed = corpus_builder("mixed")
        assert mixed(4, 120) == build_trace(4, 120)
        assert mixed(5, 120) == corpus_trace(5, 120)

    def test_unknown_corpus_is_rejected(self):
        with pytest.raises(ValueError, match="random"):
            corpus_builder("chaotic")


class TestCampaigns:
    @pytest.mark.parametrize("corpus", CORPUS_NAMES)
    def test_small_campaign_runs_clean(self, corpus):
        assert fuzz(cases=4, seed=9, records=150, configs=SMALL,
                    corpus=corpus) == []


def _aliased_install(self, entry, *, make_mru=True):
    """Planted bug: the install tag comparator never matches, so a
    re-install of a resident branch address duplicates its tag."""
    ways = self._rows[(entry.address >> 5) % self.rows]
    ways.insert(0 if make_mru else len(ways), entry)
    victim = ways.pop() if len(ways) > self.ways else None
    if self.audit is not None:
        self.audit.on_btb_write(self, "install", ways)
    return victim


class TestPlantedAliasingBug:
    def test_adversarial_corpus_catches_and_shrinks_it(self, monkeypatch):
        monkeypatch.setattr(BranchTargetBuffer, "install", _aliased_install)
        config = FUZZ_CONFIGS["small baseline"]
        trace = corpus_builder("adversarial")(2, 350)
        violation = run_case(trace, config)
        assert violation is not None
        assert violation.check == "btb_row"
        assert "duplicate tag" in str(violation)
        shrunk = shrink(
            trace, lambda candidate: run_case(candidate, config) is not None)
        assert 0 < len(shrunk) <= 2 < len(trace)
        assert run_case(shrunk, config) is not None

    def test_fuzz_reports_a_shrunk_failure(self, monkeypatch):
        monkeypatch.setattr(BranchTargetBuffer, "install", _aliased_install)
        failures = fuzz(cases=1, seed=2, records=350, configs=SMALL,
                        corpus="adversarial")
        assert len(failures) == 1
        failure = failures[0]
        assert failure.check == "btb_row"
        assert 0 < len(failure.shrunk) < failure.trace_length
        report = render_failure(failure)
        assert "minimal trace:" in report
        assert failure.config_name in report

    def test_clean_again_once_the_bug_is_fixed(self):
        assert run_case(corpus_builder("adversarial")(2, 350),
                        FUZZ_CONFIGS["small baseline"]) is None
