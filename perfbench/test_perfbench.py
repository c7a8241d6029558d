"""Self-tests of the benchmark's aggregation, percentile, tracing and checks.

    python3 -m pytest perfbench -q

Planted faults (a wrong pinned digest, a checkpoint corrupted before the
rerun) must each count as a failed op.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run as entry  # noqa: E402
from hostclock import REFERENCE_SPEED, HostClock  # noqa: E402
import stats  # noqa: E402
from seeds import TRACES, seeded_spec  # noqa: E402


# -- percentiles and aggregation ---------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = [float(value) for value in range(1, 101)]
    assert stats.percentile(samples, 50) == 50.0
    assert stats.percentile(samples, 95) == 95.0
    assert stats.percentile(list(reversed(samples)), 95) == 95.0
    assert stats.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_tail_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(200, 95) == 10
    assert stats.samples_beyond(199, 95) == 9
    enough = [float(value) for value in range(200)]
    assert stats.tail(enough) == ("p95", 189.0)
    few = [3.0, 9.0, 4.0]
    assert stats.tail(few) == ("max", 9.0)


def test_rate_sums_work_and_time_over_every_window():
    windows = [(100, 0.0, 1.0), (100, 5.0, 8.0)]
    # 200 records in 4 s, not the mean of the per-op rates (62.5).
    assert stats.rate(windows, stats.wall_seconds) == 50.0
    # Priced by another clock: the host ran at half speed in window two.
    assert stats.rate(windows, lambda s, e: (e - s) / (2 if s else 1)) \
        == 200 / 2.5
    assert stats.rate([], stats.wall_seconds) == 0.0


def test_host_clock_prices_windows_by_the_speed_sampled_in_them():
    clock = HostClock()
    clock.samples = [(1.0, REFERENCE_SPEED), (2.0, REFERENCE_SPEED / 2),
                     (3.0, REFERENCE_SPEED / 2)]
    assert clock.seconds(0.5, 1.5) == 1.0
    assert clock.seconds(1.5, 3.5) == 1.0
    assert clock.mean_speed() == REFERENCE_SPEED * 2 / 3
    # No sample inside the window: the nearest one prices it.
    assert clock.mean_speed(2.9, 2.95) == REFERENCE_SPEED / 2
    assert clock.mean_speed(0.1, 0.2) == REFERENCE_SPEED


def test_host_clock_samples_in_the_background(tmp_path):
    clock = HostClock().start()
    time.sleep(0.2)
    clock.stop()
    assert len(clock.samples) >= 3
    clock.dump(tmp_path / "clock.json")
    assert HostClock.load(tmp_path / "clock.json").samples == clock.samples


def test_digest_ignores_key_order_and_sees_float_bits():
    assert stats.digest({"a": 1, "b": 0.1}) == stats.digest({"b": 0.1, "a": 1})
    assert stats.digest({"a": 0.1}) \
        != stats.digest({"a": math.nextafter(0.1, 1.0)})


# -- output checks -------------------------------------------------------------------


def test_ledger_fails_a_wrong_pinned_digest():
    ledger = stats.Ledger(pinned="0" * 16)
    ledger.attempted += 1
    assert not ledger.expect("1" * 16)
    assert ledger.failed == 1
    line = json.loads(stats.result_line(ledger, {}))
    assert line["correct"] is False and line["failed"] == 1


def test_ledger_without_a_pin_checks_parity_with_the_first_op():
    ledger = stats.Ledger()
    assert ledger.expect("a")
    assert ledger.expect("a")
    assert not ledger.expect("b")
    assert ledger.failed == 1


def test_result_line_needs_an_attempt():
    ledger = stats.Ledger()
    assert json.loads(stats.result_line(ledger, {}))["correct"] is False
    ledger.attempted = 2
    line = json.loads(stats.result_line(ledger, {"x": stats.metric(1.5, "s")}))
    assert line == {"correct": True, "attempted": 2, "failed": 0,
                    "metrics": {"x": {"value": 1.5, "unit": "s"}}}


# -- tracing ---------------------------------------------------------------------------


def test_self_times_and_remainder_add_up_to_the_op(monkeypatch):
    ticks = iter(range(1000))
    monkeypatch.setattr(layers, "_perf", lambda: float(next(ticks)))
    recorder = layers.Recorder()
    inner = recorder.wrap(lambda: None, "btb")
    outer = recorder.wrap(lambda: inner(), "engine.step")
    with recorder.span("op"):
        outer()
        outer()
    totals = recorder.totals()
    found, _, covered = totals
    # Each call reads the clock twice: inner spans 1 tick, outer 3 ticks.
    assert found["btb"][:2] == [2, 2.0]
    assert found["engine.step"][:2] == [2, 4.0]
    assert found["op"][2] == covered == 9.0
    assert found["op"][1] == 3.0
    assert layers.attribution_gap(totals) == 0.0
    values = layers.per_op(totals, 1)
    assert values["btb.self_s"] == 2.0
    assert values["tracing.op_s"] == 9.0
    assert values["tracing.unattributed_s"] == 3.0


def test_busy_time_counts_only_outermost_calls(monkeypatch):
    ticks = iter(range(1000))
    monkeypatch.setattr(layers, "_perf", lambda: float(next(ticks)))
    recorder = layers.Recorder()

    def recurse(depth):
        return depth and wrapped(depth - 1)

    wrapped = recorder.wrap(recurse, "btb")
    wrapped(2)
    calls, self_s, busy = recorder.totals()[0]["btb"]
    assert calls == 3
    # Nested calls of one layer: 5 ticks busy, not the 1 + 3 + 5 they span.
    assert busy == 5.0
    assert self_s == 5.0


def test_install_and_uninstall_restore_every_attribute():
    from repro.engine.simulator import Simulator
    from repro.trace.reader import TraceFile

    step, iter_from = Simulator.step, TraceFile.iter_from
    recorder = layers.install(layers.Recorder())
    assert Simulator.step is not step
    recorder.uninstall()
    assert Simulator.step is step
    assert TraceFile.iter_from is iter_from


# -- seeds and the benchmark contract --------------------------------------------------


def test_seed_zero_is_the_catalog_and_other_seeds_move_the_generators():
    from repro.workloads.catalog import workload_by_name

    for workload, (name, _) in TRACES.items():
        catalog = workload_by_name(name)
        assert seeded_spec(workload, 0) == catalog
        moved = seeded_spec(workload, 3)
        assert moved.shape.seed != catalog.shape.seed
        assert moved.profile.seed != catalog.profile.seed
        assert moved.trace_length == catalog.trace_length


def test_benchmark_json_names_every_metric_with_its_unit():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert config["paths"] == ["perfbench"]
    import workloads

    names = [w["name"] for w in config["workloads"]]
    assert names == list(entry.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} \
        == entry.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} \
        == entry.PER_LAYER


def test_run_refuses_a_directory_without_the_program(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "detail-btb2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


# -- planted faults on a real sampled op -------------------------------------------------


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    from repro.trace.writer import save_trace

    path = tmp_path_factory.mktemp("trace") / "tpf.ztrc"
    save_trace(path, seeded_spec("sampled-ckpt", 0).generate(0.02))
    return path


def sampled(small_trace, tmp_path, ledger, corrupt=None):
    import workloads

    return workloads.sampled_pair(
        small_trace, tmp_path / "ckpt", "small", ledger, workloads.Windows(),
        corrupt=corrupt)


def test_a_clean_sampled_op_passes(small_trace, tmp_path):
    ledger = stats.Ledger()
    assert sampled(small_trace, tmp_path, ledger) == 0
    assert ledger.failures == []
    # The same op again, now against the first op's digest.
    sampled(small_trace, tmp_path, ledger)
    assert ledger.failures == []


def test_a_wrong_pinned_digest_fails_the_op(small_trace, tmp_path):
    ledger = stats.Ledger(pinned="0" * 16)
    sampled(small_trace, tmp_path, ledger)
    assert ledger.failed == 1
    assert "digest" in ledger.failures[0]


def test_a_checkpoint_corrupted_before_the_rerun_fails_the_op(
        small_trace, tmp_path):
    def corrupt(store_dir):
        victim = sorted(Path(store_dir).glob("ckpt-*.json.gz"))[0]
        victim.write_bytes(victim.read_bytes()[:40])

    ledger = stats.Ledger()
    assert sampled(small_trace, tmp_path, ledger, corrupt=corrupt) == 1
    assert ledger.failed >= 1
    assert any("skipped" in failure for failure in ledger.failures)
