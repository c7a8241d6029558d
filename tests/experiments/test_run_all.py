"""Tests for the run-everything report generator (static parts).

The full ``build_report`` is exercised by the real experiment run (it
produced EXPERIMENTS.md); here we cover the argument handling and the
paper-reference constants without paying for simulations.
"""

from repro.experiments.run_all import PAPER, main


class TestPaperConstants:
    def test_headline_numbers_match_paper_text(self):
        assert PAPER["max_btb2_gain"] == 13.8
        assert PAPER["daytrader_large_btb1_gain"] == 20.2
        assert PAPER["effectiveness_range"] == (16.6, 83.4)
        assert PAPER["effectiveness_mean"] == 52.0

    def test_figure3_numbers(self):
        assert PAPER["fig3_wasdb_hw"] == 5.3
        assert PAPER["fig3_wasdb_model"] == 8.5
        assert PAPER["fig3_cics_hw"] == 3.4

    def test_figure4_numbers(self):
        assert PAPER["fig4_bad_without"] == 25.9
        assert PAPER["fig4_bad_with"] == 14.3
        assert PAPER["fig4_capacity_without"] == 21.9
        assert PAPER["fig4_capacity_with"] == 8.1


class TestCLI:
    def test_rejects_unknown_flag(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            main(["--bogus"])

    def test_exported_switches_do_not_outlive_the_report(
        self, tmp_path, monkeypatch, capsys
    ):
        # --audit and --progress export $REPRO_AUDIT/$REPRO_STATUS for the
        # pool workers; the caller's environment comes back afterwards.
        import os

        from repro.experiments import run_all

        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        monkeypatch.setenv("REPRO_STATUS", "caller.status.jsonl")
        seen = {}

        def fake_report(scale, sweep_scale, jobs=None):
            seen["audit"] = os.environ.get("REPRO_AUDIT")
            seen["status"] = os.environ.get("REPRO_STATUS")
            return "report\n"

        monkeypatch.setattr(run_all, "build_report", fake_report)
        output = tmp_path / "report.md"
        assert main(["--audit", "--progress", "--output", str(output)]) == 0
        assert seen == {"audit": "1",
                        "status": f"{output}.status.jsonl"}
        assert "REPRO_AUDIT" not in os.environ
        assert os.environ["REPRO_STATUS"] == "caller.status.jsonl"
