"""Host-side wall-time phase timer."""

from repro.telemetry import phase_timer


class TestPhaseTimer:
    def test_one_shot_reports_to_record(self):
        seen = {}

        def record(name, seconds):
            seen[name] = seen.get(name, 0.0) + seconds

        with phase_timer("tables", record):
            pass
        assert "tables" in seen
        assert seen["tables"] >= 0.0

    def test_one_shot_reports_on_exception(self):
        seen = {}
        try:
            with phase_timer("boom", lambda n, s: seen.__setitem__(n, s)):
                raise ValueError("expected")
        except ValueError:
            pass
        assert "boom" in seen
