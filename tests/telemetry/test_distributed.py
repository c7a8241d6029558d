"""The telemetry relay: shards, aggregation, parity, tolerance.

The distributed pins, in rough dependency order:

* a ``WorkerSession`` streams schema-valid events and publishes its
  metrics snapshot atomically;
* a relay-on ``run_parallel`` (K∈{2,4}) stays **bit-identical** to both
  a relay-off parallel run and a plain serial run — observation must
  not perturb the experiment;
* the merged Chrome trace carries one pid lane per worker plus the
  orchestrator lane, monotone time inside each lane, and a metadata
  block accounting for every shard;
* aggregation is tolerant: a truncated shard (crashed worker) degrades
  to a ``skipped`` ledger entry, a manifest-expected shard that never
  appeared lands on ``missing`` — mirroring ``CheckpointStore.skipped``;
* worker metric shards merge to the serial run's totals and survive the
  Prometheus round trip.
"""

import json

import pytest

from repro.core.config import ZEC12_CONFIG_2
from repro.engine.simulator import simulate
from repro.sampling import ParallelPlan, TraceSource, run_parallel
from repro.telemetry.distributed import (
    ORCHESTRATOR,
    RELAY_ENV,
    TelemetryRelay,
    aggregate,
    read_manifest,
    read_shard,
)
from repro.telemetry.metrics import MetricsRegistry, parse_prometheus
from repro.telemetry.monitor import STATUS_ENV
from repro.workloads.catalog import workload_by_name
from tests.conftest import loop_trace

WORKLOAD = "TPF"
SCALE = 0.05


@pytest.fixture(autouse=True)
def _no_ambient_relay(monkeypatch):
    """Tests control the relay/status env themselves."""
    monkeypatch.delenv(RELAY_ENV, raising=False)
    monkeypatch.delenv(STATUS_ENV, raising=False)


def _source() -> TraceSource:
    return TraceSource(workload_by_name(WORKLOAD), SCALE)


def _relay_run(tmp_path, k: int, backend: str = "serial"):
    relay = TelemetryRelay(tmp_path / "relay", run_id="t")
    stitched = run_parallel(_source(), config=ZEC12_CONFIG_2,
                            plan=ParallelPlan(k), backend=backend,
                            relay=relay)
    return relay, stitched


class TestWorkerSession:
    def test_streams_events_and_publishes_metrics(self, tmp_path):
        relay = TelemetryRelay(tmp_path, run_id="r1")
        session = relay.worker_session("w0", 0)
        simulate(loop_trace(80), config=ZEC12_CONFIG_2,
                 telemetry=session.telemetry)
        session.registry.counter("c_total", "test").inc(3)
        session.close()

        events, skipped = read_shard(relay.shard_path("w0", 0))
        assert events and not skipped
        snapshot = json.loads(relay.metrics_path("w0", 0).read_text())
        restored = MetricsRegistry.from_snapshot(snapshot)
        assert restored.get("c_total").value() == 3

    def test_session_without_metrics_writes_no_snapshot(self, tmp_path):
        relay = TelemetryRelay(tmp_path, run_id="r1")
        session = relay.worker_session("w0", 0)
        session.close()
        assert not relay.metrics_path("w0", 0).exists()


class TestRelayParity:
    @pytest.mark.parametrize("k", [2, 4])
    def test_relay_on_parallel_is_bit_identical_to_serial(self, tmp_path, k):
        """The acceptance pin: observed fan-out == unobserved serial."""
        serial = simulate(workload_by_name(WORKLOAD).trace(SCALE),
                          config=ZEC12_CONFIG_2)
        plain = run_parallel(_source(), config=ZEC12_CONFIG_2,
                             plan=ParallelPlan(k), backend="serial")
        _, relayed = _relay_run(tmp_path, k)
        assert relayed.result.counters.state_dict() \
            == serial.counters.state_dict()
        assert relayed.result.counters.state_dict() \
            == plain.result.counters.state_dict()
        assert relayed.cpi == serial.cpi

    def test_relay_parity_holds_on_process_backend(self, tmp_path):
        serial = simulate(workload_by_name(WORKLOAD).trace(SCALE),
                          config=ZEC12_CONFIG_2)
        _, relayed = _relay_run(tmp_path, 2, backend="process")
        assert relayed.result.counters.state_dict() \
            == serial.counters.state_dict()


class TestAggregation:
    def test_merged_trace_has_a_lane_per_worker(self, tmp_path):
        k = 4
        relay, _ = _relay_run(tmp_path, k)
        merged = aggregate(relay.directory, relay.run_id)
        assert not merged.missing and not merged.skipped
        # K worker lanes plus the orchestrator lane, orchestrator first.
        assert merged.workers[0] == ORCHESTRATOR
        assert len(merged.workers) == k + 1
        meta = merged.trace["metadata"]
        pids = {e.get("pid") for e in merged.trace["traceEvents"]}
        assert len(pids) >= k + 1
        assert {s["worker"] for s in meta["shards"]} == set(merged.workers)
        assert meta["missing"] == []

    def test_lane_time_is_monotone(self, tmp_path):
        relay, _ = _relay_run(tmp_path, 2)
        merged = aggregate(relay.directory, relay.run_id)
        last: dict = {}
        for event in merged.trace["traceEvents"]:
            if event.get("ph") == "M" or "ts" not in event:
                continue
            lane = (event["pid"], event.get("tid"))
            assert float(event["ts"]) >= last.get(lane, float("-inf"))
            last[lane] = float(event["ts"])

    def test_truncated_shard_degrades_to_skipped(self, tmp_path):
        relay, _ = _relay_run(tmp_path, 2)
        shard = relay.shard_path("w0", 0)
        text = shard.read_text()
        shard.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2])
        merged = aggregate(relay.directory, relay.run_id)
        assert any(path == shard for path, _ in merged.skipped)
        # The surviving lines still merge; the other lanes are whole.
        assert merged.events

    def test_manifest_missing_shard_is_reported(self, tmp_path):
        relay, _ = _relay_run(tmp_path, 2)
        victim = relay.shard_path("w1", 1)
        victim.unlink()
        merged = aggregate(relay.directory, relay.run_id)
        assert victim.name in merged.missing
        assert victim.name in merged.trace["metadata"]["missing"]

    def test_manifest_records_every_expected_shard(self, tmp_path):
        relay, _ = _relay_run(tmp_path, 2)
        manifest = read_manifest(relay.directory)
        expected = set(manifest["expected"])
        assert relay.shard_path(ORCHESTRATOR, 0).name in expected
        assert relay.shard_path("w0", 0).name in expected
        assert relay.shard_path("w1", 1).name in expected

    def test_exports_pass_the_artifact_checker(self, tmp_path):
        import sys
        from pathlib import Path
        sys.path.insert(0, str(Path(__file__).resolve().parents[2]
                               / "scripts"))
        try:
            import check_trace
        finally:
            sys.path.pop(0)
        relay, _ = _relay_run(tmp_path, 2)
        merged = aggregate(relay.directory, relay.run_id)
        chrome = tmp_path / "merged.json"
        jsonl = tmp_path / "merged.jsonl"
        merged.write_chrome(chrome)
        merged.write_jsonl(jsonl)
        assert check_trace.check_merged_file(chrome) == []
        assert check_trace.check_jsonl_file(jsonl) == []


class TestMetricsRelay:
    def test_shard_metrics_merge_to_serial_totals(self, tmp_path):
        """Merged slice counters equal the serial run's whole-trace totals,
        and survive the Prometheus round trip — the snapshot acceptance
        criterion."""
        serial = simulate(workload_by_name(WORKLOAD).trace(SCALE),
                          config=ZEC12_CONFIG_2)
        relay, _ = _relay_run(tmp_path, 4)
        merged = aggregate(relay.directory, relay.run_id)
        instructions = merged.registry.get("repro_slice_instructions_total")
        assert instructions.value() == serial.counters.instructions

        families = parse_prometheus(merged.registry.to_prometheus())
        assert families["repro_slice_instructions_total"]["samples"][
            ("repro_slice_instructions_total", ())
        ] == serial.counters.instructions
        seconds = families["repro_slice_seconds"]
        assert seconds["samples"][("repro_slice_seconds_count", ())] == 4

    def test_snapshot_round_trips_through_file(self, tmp_path):
        relay, _ = _relay_run(tmp_path, 2)
        merged = aggregate(relay.directory, relay.run_id)
        target = tmp_path / "metrics.json"
        merged.registry.write_snapshot(target)
        restored = MetricsRegistry.from_snapshot(
            json.loads(target.read_text()))
        assert restored.snapshot() == merged.registry.snapshot()
