"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import _suffixed, build_parser, main
from repro.core.config import ZEC12_CONFIG_2
from repro.telemetry import validate_jsonl


def snapshot_values(path) -> dict:
    """The run counters of a metrics snapshot file, by metric name."""
    from repro.telemetry.metrics import validate_snapshot

    snapshot = json.loads(path.read_text())
    assert validate_snapshot(snapshot) == []
    values = {}
    for metric in snapshot["metrics"]:
        for series in metric["series"]:
            key = metric["name"] + "".join(
                f"[{label}]" for label in series["labels"])
            values[key] = series.get("value", series.get("count"))
    return values


class TestParser:
    def test_workloads_command(self):
        args = build_parser().parse_args(["workloads"])
        assert args.command == "workloads"

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "TPF"])
        assert args.configs == ["1", "2"]
        assert args.scale == 0.35

    def test_simulate_custom_configs(self):
        args = build_parser().parse_args(
            ["simulate", "TPF", "--configs", "1", "3"]
        )
        assert args.configs == ["1", "3"]

    def test_figure_range(self):
        args = build_parser().parse_args(["figure", "5"])
        assert args.number == 5

    def test_figure_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "9"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_telemetry_flags(self):
        args = build_parser().parse_args(
            ["simulate", "TPF", "--trace", "ev.jsonl",
             "--chrome-trace", "trace.json", "--sample", "tl.csv",
             "--sample-interval", "256", "--profile"]
        )
        assert args.trace == "ev.jsonl"
        assert args.chrome_trace == "trace.json"
        assert args.sample == "tl.csv"
        assert args.sample_interval == 256
        assert args.profile == 10  # bare --profile defaults to top 10

    def test_timeline_defaults(self):
        args = build_parser().parse_args(["timeline", "TPF"])
        assert args.command == "timeline"
        assert args.config == "2" and args.interval == 1024

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile", "TPF"])
        assert args.command == "profile" and args.top == 10

    def test_suffixed_paths(self):
        assert _suffixed("out.jsonl", "2", True) == "out.cfg2.jsonl"
        assert _suffixed("out.jsonl", "2", False) == "out.jsonl"


class TestCommands:
    def test_workloads_lists_catalog(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "DayTrader DBServ" in out
        assert "34,819" in out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 5" in out

    def test_simulate_runs_tiny(self, capsys):
        assert main(["simulate", "TPF", "--scale", "0.02",
                     "--configs", "1"]) == 0
        out = capsys.readouterr().out
        assert "CPI" in out

    def test_simulate_compares_configs(self, capsys):
        assert main(["simulate", "TPF", "--scale", "0.02",
                     "--configs", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "% CPI" in out

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            main(["simulate", "NOPE"])


class TestTelemetryCommands:
    def test_simulate_exports_all_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        chrome = tmp_path / "trace.json"
        sample = tmp_path / "timeline.csv"
        assert main(["simulate", "TPF", "--scale", "0.02", "--configs", "2",
                     "--trace", str(trace), "--chrome-trace", str(chrome),
                     "--sample", str(sample), "--sample-interval", "256",
                     "--profile", "3"]) == 0
        assert validate_jsonl(trace.read_text().splitlines()) == []
        payload = json.loads(chrome.read_text())
        assert payload["traceEvents"]
        header, *rows = sample.read_text().splitlines()
        assert header.startswith("cycle,") and rows
        out = capsys.readouterr().out
        assert "penalty profile" in out

    def test_simulate_multi_config_suffixes_exports(self, tmp_path):
        trace = tmp_path / "events.jsonl"
        assert main(["simulate", "TPF", "--scale", "0.02",
                     "--configs", "1", "2", "--trace", str(trace)]) == 0
        assert (tmp_path / "events.cfg1.jsonl").exists()
        assert (tmp_path / "events.cfg2.jsonl").exists()

    def test_simulate_writes_the_run_counters(self, tmp_path, capsys):
        target = tmp_path / "m.json"
        assert main(["simulate", "TPF", "--scale", "0.02", "--configs", "2",
                     "--metrics", str(target)]) == 0
        counters = snapshot_values(target)
        assert counters["repro_runs_total[simulated]"] == 1
        assert counters["repro_run_instructions_total"] == 50_000
        assert counters["repro_run_branches_total"] > 0
        assert counters["repro_run_seconds"] == 1
        assert "wrote 0 metric(s)" not in capsys.readouterr().out

    def test_timeline_renders(self, tmp_path, capsys):
        csv = tmp_path / "timeline.csv"
        assert main(["timeline", "TPF", "--scale", "0.02",
                     "--interval", "256", "--csv", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "instructions, CPI" in out
        assert csv.exists()

    def test_profile_renders_top_k(self, capsys):
        assert main(["profile", "TPF", "--scale", "0.02", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "penalty profile (top 5)" in out


class TestParallelSimulate:
    def test_parser_flags(self):
        args = build_parser().parse_args(
            ["simulate", "TPF", "--parallel-intervals", "4",
             "--backend", "serial"]
        )
        assert args.parallel_intervals == 4
        assert args.backend == "serial"
        # Off by default: serial execution stays the default path.
        assert build_parser().parse_args(
            ["simulate", "TPF"]).parallel_intervals is None

    def test_exact_parallel_matches_serial_output(self, capsys):
        assert main(["simulate", "TPF", "--scale", "0.02", "--configs", "2",
                     "--parallel-intervals", "3", "--backend", "serial"]) == 0
        parallel_out = capsys.readouterr().out
        assert main(["simulate", "TPF", "--scale", "0.02",
                     "--configs", "2"]) == 0
        serial_out = capsys.readouterr().out
        # Exact mode is bit-identical: the CPI line matches the serial run.
        assert "checkpoint-parallel" in parallel_out
        serial_cpi = next(line for line in serial_out.splitlines()
                          if "CPI" in line)
        assert serial_cpi in parallel_out

    def test_sampled_parallel_reports_ci(self, capsys):
        assert main(["simulate", "TPF", "--scale", "0.1", "--configs", "2",
                     "--sampled", "--interval", "400", "--period", "8000",
                     "--warmup", "400", "--max-ci", "1.0",
                     "--parallel-intervals", "2", "--backend", "serial"]) == 0
        out = capsys.readouterr().out
        assert "checkpoint-parallel" in out and "sampled" in out

    def test_audited_parallel_is_refused(self, capsys):
        code = main(["simulate", "TPF", "--scale", "0.02", "--configs", "2",
                     "--audit", "--parallel-intervals", "2"])
        assert code == 2
        assert "audit" in capsys.readouterr().err


class TestAuditEnvironment:
    """``--audit`` exports ``$REPRO_AUDIT`` for one command only."""

    def test_audit_switch_does_not_outlive_the_command(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        assert main(["simulate", "TPF", "--scale", "0.02", "--configs", "2",
                     "--audit", "--parallel-intervals", "2"]) == 2
        assert "REPRO_AUDIT" not in os.environ

    def test_previous_value_is_restored_when_the_command_raises(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_AUDIT", "0")
        with pytest.raises(KeyError):
            main(["simulate", "no-such-workload", "--audit"])
        assert os.environ["REPRO_AUDIT"] == "0"


class TestRefusalExitCode:
    def test_sampled_refusal_exits_nonzero(self, capsys):
        # An impossibly tight CI bound forces ConfidenceBoundExceeded; the
        # CLI must refuse with exit code 1 and say so on stderr, never
        # print a number that looks more certain than it is.
        code = main(["simulate", "TPF", "--scale", "0.02", "--configs", "2",
                     "--sampled", "--interval", "400", "--period", "8000",
                     "--warmup", "400", "--max-ci", "1e-12"])
        assert code == 1
        captured = capsys.readouterr()
        assert "CI measure" in captured.err
        assert "refusing" in captured.err or "exceeds" in captured.err

    def test_sampled_within_bound_exits_zero(self, capsys):
        code = main(["simulate", "TPF", "--scale", "0.02", "--configs", "2",
                     "--sampled", "--interval", "400", "--period", "8000",
                     "--warmup", "400", "--max-ci", "0.5"])
        assert code == 0
        assert "CPI" in capsys.readouterr().out


class TestClosedStdout:
    def test_closed_pipe_exits_nonzero_without_a_traceback(self):
        """``repro simulate ... | head -2``: the reader leaves mid-run."""
        source = str(Path(repro.__file__).parents[1])
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [source, os.environ.get("PYTHONPATH")])))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "simulate", "TPF", "--scale",
             "0.05", "--configs", "1", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        for _ in range(2):
            assert process.stdout.readline()
        process.stdout.close()
        _, stderr = process.communicate(timeout=300)
        assert process.returncode != 0
        assert b"Traceback" not in stderr


def faithful_measure(real: dict):
    """A stand-in for :func:`repro.oracle.golden.measure` that returns the
    committed cells of ``real`` (a perfect re-measurement)."""

    def measure(scale, config=None, jobs=None, predictors=None,
                workloads=None, engine_mode="object"):
        return {name: {workload: real["predictors"][name][workload]
                       for workload in workloads}
                for name in predictors}

    return measure


class TestVerifyCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["verify"])
        assert args.command == "verify"
        assert args.golden == "tests/golden/predictors.json"
        assert args.scale == 0.01 and args.golden_scale == 0.02
        assert not args.update_golden
        assert args.predictor == ["paper"]

    def test_mutation_drill_gate_alone(self, capsys):
        code = main(["verify", "--skip-differential", "--skip-golden",
                     "--skip-parallel"])
        assert code == 0
        out = capsys.readouterr().out
        assert "conformance[paper]: 5 checks passed" in out
        assert "mutation drill[paper]: caught" in out
        assert ("divergence at record 44, branch 0x10000142, cycle 108: "
                "structure 'BTB1 row'") in out
        assert "verify: all gates passed" in out

    def test_parallel_gate_takes_adversarial_workloads(self, capsys):
        # The gate draws from the golden slate, so a selection of
        # adversarial probes alone is checked, and counted, like any other.
        code = main(["verify", "--skip-differential", "--skip-mutation-drill",
                     "--skip-golden", "--workloads", "btb-capacity"])
        assert code == 0
        out = capsys.readouterr().out
        assert ("parallel[paper]: 1 workload(s) bit-identical serial vs "
                "4 checkpoint-parallel slices") in out
        assert "verify: all gates passed" in out

    def test_golden_gate_fails_on_drift(self, tmp_path, capsys, monkeypatch):
        # A baseline whose recorded CPI cannot match forces the gate red.
        from repro.oracle import golden

        real = golden.load_baseline(golden.GOLDEN_PATH)
        name = "TPF airline reservations"
        doctored = json.loads(json.dumps(real))
        doctored["predictors"]["paper"][name]["cpi"] *= 2
        path = tmp_path / "gold.json"
        golden.write_baseline(path, doctored)
        monkeypatch.setattr(golden, "measure", faithful_measure(real))
        code = main(["verify", "--skip-differential", "--skip-mutation-drill",
                     "--skip-parallel",
                     "--golden", str(path), "--workloads", "TPF"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"golden[paper]: paper/{name}: cpi" in err
        assert "verify: FAILED" in err

    def test_golden_gate_passes_when_measurement_matches(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.oracle import golden

        real = golden.load_baseline(golden.GOLDEN_PATH)
        monkeypatch.setattr(golden, "measure", faithful_measure(real))
        code = main(["verify", "--skip-differential", "--skip-mutation-drill",
                     "--skip-parallel",
                     "--golden", str(golden.GOLDEN_PATH),
                     "--workloads", "TPF"])
        assert code == 0
        out = capsys.readouterr().out
        assert "golden[paper]: 1 cell(s) within tolerance, object" in out
        assert "golden[paper]: 1 cell(s) within tolerance, auto" in out

    def test_workload_selection_narrows_every_predictors_cells(
        self, tmp_path, capsys, monkeypatch
    ):
        # A doctored zoo cell outside the selection must not be checked;
        # without the selection it must fail, naming the cell.
        from repro.oracle import golden

        real = golden.load_baseline(golden.GOLDEN_PATH)
        doctored = json.loads(json.dumps(real))
        doctored["predictors"]["tage"]["adversarial/target-aliasing"][
            "cpi"] *= 2
        path = tmp_path / "gold.json"
        golden.write_baseline(path, doctored)
        monkeypatch.setattr(golden, "measure", faithful_measure(real))
        command = ["verify", "--skip-differential", "--skip-mutation-drill",
                   "--skip-parallel", "--predictor", "tage",
                   "--golden", str(path)]
        assert main(command + ["--workloads", "TPF"]) == 0
        assert ("golden[tage]: 1 cell(s) within tolerance"
                in capsys.readouterr().out)
        assert main(command) == 1
        err = capsys.readouterr().err
        assert "golden[tage]: tage/adversarial/target-aliasing: cpi" in err
        assert "TPF" not in err

    def test_update_golden_writes_selected_file(self, tmp_path, monkeypatch):
        from repro.oracle import golden

        def fake_build(scale, config=None, jobs=None):
            return {"schema": golden.GOLDEN_SCHEMA, "config": "x",
                    "scale": scale, "tolerances": {"relative": 1e-9},
                    "predictors": {"paper": {"W": {"cpi": 1.0}}}}

        monkeypatch.setattr(golden, "build", fake_build)
        path = tmp_path / "gold.json"
        assert main(["verify", "--update-golden", "--golden", str(path),
                     "--golden-scale", "0.03"]) == 0
        assert golden.load_baseline(path)["scale"] == 0.03


@pytest.mark.slow
class TestVerifyEndToEnd:
    def test_full_verify_passes_on_main(self, capsys):
        # The real gate over the paper stack, cold caches (the autouse
        # fixture isolates them): conformance battery, mutation drill, the
        # five-trace lockstep slate, and the paper's 15 golden cells.
        assert main(["verify", "--jobs", "0"]) == 0
        out = capsys.readouterr().out
        assert "conformance[paper]: 5 checks passed" in out
        assert "mutation drill[paper]: caught" in out
        lockstep = [line for line in out.splitlines()
                    if line.startswith("lockstep[paper]: ")]
        assert len(lockstep) == 5
        assert all("no divergence" in line for line in lockstep)
        # The golden gate re-measures with both engines by default, making
        # it a bit-identity check of the batched core against object.
        assert ("golden[paper]: 15 cell(s) within tolerance, object engine"
                in out)
        assert ("golden[paper]: 15 cell(s) within tolerance, auto engine"
                in out)
        # The parallel gate demands bit-identity between serial and the
        # stitched checkpoint-parallel run on every golden-slate workload.
        assert ("parallel[paper]: 15 workload(s) bit-identical serial vs "
                "4 checkpoint-parallel slices" in out)


class TestPredictorCli:
    def test_simulate_predictor_default_is_paper(self):
        assert build_parser().parse_args(
            ["simulate", "TPF"]).predictor == "paper"

    def test_simulate_predictor_flag(self):
        args = build_parser().parse_args(
            ["simulate", "TPF", "--predictor", "tage"])
        assert args.predictor == "tage"

    def test_verify_predictor_flags(self):
        args = build_parser().parse_args(["verify"])
        assert args.predictor == ["paper"]
        assert not hasattr(args, "predictor_golden")
        args = build_parser().parse_args(
            ["verify", "--predictor", "tage", "ldbp"])
        assert args.predictor == ["tage", "ldbp"]

    def test_workloads_lists_the_adversarial_family(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "adversarial/btb-capacity" in out
        assert "adversarial/tracker-thrash" in out

    def test_simulate_zoo_predictor_runs(self, capsys):
        assert main(["simulate", "target-aliasing", "--predictor", "tage",
                     "--scale", "0.001", "--configs", "2"]) == 0
        out = capsys.readouterr().out
        assert "predictor: tage" in out
        assert "tage / 2. BTB2 enabled" in out
        assert "CPI" in out

    def test_simulate_zoo_writes_the_metrics_snapshot(self, tmp_path):
        target = tmp_path / "m.json"
        assert main(["simulate", "target-aliasing", "--predictor", "tage",
                     "--scale", "0.01", "--configs", "2",
                     "--metrics", str(target)]) == 0
        counters = snapshot_values(target)
        assert counters["repro_runs_total[simulated]"] == 1
        assert counters["repro_run_instructions_total"] > 0
        assert counters["repro_run_branches_total"] > 0

    def test_simulate_zoo_compares_configs(self, capsys):
        assert main(["simulate", "target-aliasing", "--predictor", "ldbp",
                     "--scale", "0.001", "--configs", "1", "2"]) == 0
        assert "% CPI" in capsys.readouterr().out

    def test_simulate_zoo_refuses_sampling(self, capsys):
        code = main(["simulate", "TPF", "--predictor", "tage", "--sampled",
                     "--scale", "0.02"])
        assert code == 2
        assert "paper stack only" in capsys.readouterr().err

    def test_simulate_zoo_refuses_parallel_intervals(self, capsys):
        code = main(["simulate", "TPF", "--predictor", "bullseye",
                     "--parallel-intervals", "2", "--scale", "0.02"])
        assert code == 2
        assert "paper stack only" in capsys.readouterr().err

    def test_simulate_zoo_refuses_alternate_engines(self, capsys):
        # ``batched`` is no longer a mode: ``auto`` runs the batched core.
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "TPF", "--predictor", "tage",
                  "--engine", "batched", "--scale", "0.02"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'batched'" in capsys.readouterr().err

    def test_simulate_unknown_predictor_raises(self):
        with pytest.raises(ValueError, match="registered"):
            main(["simulate", "TPF", "--predictor", "nope",
                  "--scale", "0.02"])

    def test_verify_conformance_leg_alone(self, capsys):
        code = main(["verify", "--skip-differential", "--skip-golden",
                     "--skip-mutation-drill", "--skip-parallel",
                     "--predictor", "ldbp"])
        assert code == 0
        out = capsys.readouterr().out
        assert "conformance[ldbp]: 5 checks passed" in out
        assert "verify: all gates passed" in out

    def test_verify_update_predictor_golden(self, tmp_path, monkeypatch,
                                            capsys):
        # --update-golden rewrites the whole grid, whatever --predictor says.
        from repro.oracle import golden

        def fake_build(scale, config=ZEC12_CONFIG_2, jobs=None):
            return {"schema": golden.GOLDEN_SCHEMA, "config": config.name,
                    "scale": scale, "tolerances": {"relative": 1e-9},
                    "predictors": {name: {"W": {"cpi": 1.0}}
                                   for name in ("paper", "tage")}}

        monkeypatch.setattr(golden, "build", fake_build)
        path = tmp_path / "predictors.json"
        assert main(["verify", "--predictor", "tage", "--update-golden",
                     "--golden", str(path), "--golden-scale", "0.04"]) == 0
        written = golden.load_baseline(path)
        assert written["scale"] == 0.04
        assert set(written["predictors"]) == {"paper", "tage"}
        assert "2 predictors x 1 workloads" in capsys.readouterr().out


class TestAblationCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["ablation"])
        assert args.command == "ablation"
        assert args.scale == 0.02
        assert args.workloads is None
        assert args.predictors is None
        assert args.json is None

    def test_small_grid_renders_and_exports(self, tmp_path, capsys):
        payload_path = tmp_path / "ablation.json"
        assert main(["ablation", "--workloads", "adversarial/target-aliasing",
                     "--predictors", "paper", "tage", "--scale", "0.001",
                     "--json", str(payload_path)]) == 0
        out = capsys.readouterr().out
        assert "| workload | paper | tage |" in out
        assert "geomean CPI" in out
        assert "wrote ablation grid (2 cells)" in out
        payload = json.loads(payload_path.read_text())
        assert payload["schema"] == 1
        assert payload["predictors"] == ["paper", "tage"]
        assert len(payload["cells"]) == 2


class TestServiceCli:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8753
        assert args.backend == "thread"
        assert args.jobs == 4
        assert args.spool is None
        assert args.queue_records == 65536
        assert args.chunk_records == 4096
        assert args.idle_timeout == 300.0
        assert args.max_sessions == 4096

    def test_serve_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--backend", "warp"])

    def test_session_parser_ingest_flags(self):
        args = build_parser().parse_args(
            ["session", "ingest", "abc123", "--workload", "TPF",
             "--scale", "0.02", "--one-shot", "--ndjson", "--wait"])
        assert args.command == "session"
        assert args.action == "ingest"
        assert args.id == "abc123"
        assert args.workload == "TPF"
        assert args.one_shot and args.ndjson and args.wait

    def test_session_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["session", "explode"])

    def test_session_status_requires_an_id(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["session", "status"])
        assert excinfo.value.code == 2
        assert "needs a session id" in capsys.readouterr().err

    def test_session_ingest_requires_a_source(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["session", "ingest", "abc123"])
        assert excinfo.value.code == 2
        assert "--workload NAME or --trace-file" in capsys.readouterr().err

    def test_session_without_a_daemon_exits_2(self, capsys):
        # An ephemeral port nothing listens on: bind, learn it, release.
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert main(["session", "list", "--port", str(port)]) == 2
        assert "no daemon at" in capsys.readouterr().err
