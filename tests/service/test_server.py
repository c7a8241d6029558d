"""The HTTP daemon end-to-end: parity, streaming, edge cases, drain.

Each fixture boots a real daemon on an ephemeral loopback port in a
background thread and talks to it with :class:`ServiceClient` (or a raw
socket, for the torn-connection cases the client cannot produce).
"""

import asyncio
import json
import socket
import threading
from pathlib import Path

import pytest

from repro.core.config import ZEC12_CONFIG_2
from repro.engine.simulator import simulate
from repro.isa.opcodes import BranchKind
from repro.sampling import CheckpointStore, load_state, save_state
from repro.service import (
    ServiceClient,
    ServiceError,
    ServiceLimits,
    ServiceServer,
)
from repro.service.protocol import (
    CONTENT_TYPE_BINARY,
    CONTENT_TYPE_NDJSON,
    encode_records,
    encode_records_ndjson,
)
from repro.telemetry.metrics import parse_prometheus
from repro.trace.record import TraceRecord
from repro.workloads.catalog import workload_by_name

LIMITS = ServiceLimits(chunk_records=512, sweep_interval=0.05)


class _Daemon:
    """A live daemon in a background thread, torn down on exit."""

    def __init__(self, tmp_path, limits=LIMITS, backend="thread",
                 spool=True):
        self.spool = str(tmp_path / "spool") if spool else None
        self._ready = threading.Event()
        self._limits = limits
        self._backend = backend
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(10), "daemon failed to start"
        self.client = ServiceClient(port=self.server.port)
        self.client.wait_healthy()

    def _run(self):
        async def main():
            self.server = ServiceServer(
                port=0, limits=self._limits, backend=self._backend,
                jobs=2, spool=self.spool)
            await self.server.start()
            self.loop = asyncio.get_running_loop()
            self._ready.set()
            await self.server._shutdown.wait()
            await self.server.stop()

        asyncio.run(main())

    def stop(self):
        if self._thread.is_alive():
            self.loop.call_soon_threadsafe(self.server.request_shutdown)
            self._thread.join(30)
        assert not self._thread.is_alive()

    def raw(self, payload: bytes) -> None:
        """Open a raw connection, send ``payload``, and drop it."""
        with socket.create_connection(("127.0.0.1", self.server.port),
                                      timeout=5) as sock:
            sock.sendall(payload)
        # closing tears the connection mid-request


@pytest.fixture
def daemon(tmp_path):
    server = _Daemon(tmp_path)
    yield server
    server.stop()


def _trace(scale=0.01):
    return workload_by_name("Informix").trace(scale=scale)


def _expected(records):
    return simulate(records, config=ZEC12_CONFIG_2).counters.state_dict()


class TestLifecycleOverHttp:
    def test_parity_gate_stream_suspend_resume_close(self, daemon):
        """The acceptance gate: streamed counters == ``simulate``, with a
        suspend/resume cycle mid-trace changing nothing."""
        records = _trace()
        half = len(records) // 2
        client = daemon.client
        sid = client.create_session(config="2", label="parity")["id"]

        first = client.stream(sid, records[:half], chunk_records=700)
        assert first["accepted"] == half
        client.wait_processed(sid, half)
        assert client.suspend(sid)["state"] == "suspended"
        assert client.resume(sid)["state"] == "active"
        second = client.stream(sid, records[half:], chunk_records=700)
        assert second["accepted"] == len(records) - half

        closed = client.close_session(sid)
        assert closed["status"]["state"] == "closed"
        assert closed["result"]["counters"] == _expected(records)
        assert client.result(sid)["result"]["counters"] == _expected(records)

    def test_one_shot_binary_and_ndjson_agree(self, daemon):
        records = _trace(scale=0.004)
        client = daemon.client
        results = []
        for ndjson in (False, True):
            sid = client.create_session()["id"]
            accepted = client.ingest(sid, records, ndjson=ndjson)
            assert accepted["accepted"] == len(records)
            results.append(
                client.close_session(sid)["result"]["counters"])
        assert results[0] == results[1] == _expected(records)

    def test_restart_resume_from_spool(self, tmp_path):
        """Graceful drain suspends; a new daemon resumes bit-identically."""
        records = _trace(scale=0.006)
        half = len(records) // 2

        first = _Daemon(tmp_path)
        sid = first.client.create_session()["id"]
        first.client.stream(sid, records[:half])
        first.client.wait_processed(sid, half)
        first.client.shutdown()  # graceful drain -> suspend to spool
        first.stop()

        second = _Daemon(tmp_path)
        try:
            recreated = second.client.create_session(
                session_id=sid, resume=True)
            assert recreated["state"] == "suspended"
            second.client.resume(sid)
            second.client.stream(sid, records[half:])
            closed = second.client.close_session(sid)
            assert closed["result"]["counters"] == _expected(records)
        finally:
            second.stop()

    def test_listing_status_delete(self, daemon):
        client = daemon.client
        sid = client.create_session(label="visible")["id"]
        listed = client.list_sessions()
        assert [s["label"] for s in listed if s["id"] == sid] == ["visible"]
        status = client.session(sid)
        assert status["state"] == "active"
        assert status["processed_records"] == 0
        client.delete_session(sid)
        with pytest.raises(ServiceError) as excinfo:
            client.session(sid)
        assert excinfo.value.code == "unknown_session"

    def test_ingest_response_reports_cumulative_ingested(self, daemon):
        """``ingested`` is the session-lifetime total — what a client
        must wait on, since ``processed_records`` is cumulative too."""
        records = _trace(scale=0.002)
        client = daemon.client
        sid = client.create_session()["id"]
        first = client.ingest(sid, records)
        assert first["accepted"] == len(records)
        assert first["ingested"] == len(records)
        client.wait_processed(sid, first["ingested"])
        second = client.ingest(sid, records)
        assert second["accepted"] == len(records)
        assert second["ingested"] == 2 * len(records)
        status = client.wait_processed(sid, second["ingested"])
        assert status["processed_records"] == 2 * len(records)

    def test_reports_and_session_metrics(self, daemon):
        records = _trace(scale=0.004)
        client = daemon.client
        sid = client.create_session()["id"]
        client.stream(sid, records)
        client.wait_processed(sid, len(records))
        reports = client.reports(sid)
        assert sum(r["records"] for r in reports["reports"]) == len(records)
        metrics = client.session_metrics(sid)
        names = {metric["name"] for metric in metrics["metrics"]}
        assert "repro_session_processed_records_total" in names


class TestEdgeCases:
    """Satellite: malformed input never crashes the daemon."""

    def test_mid_record_connection_drop(self, daemon):
        """A client dying mid-record leaves the daemon healthy and the
        session intact with only complete records ingested."""
        records = _trace(scale=0.004)
        client = daemon.client
        sid = client.create_session()["id"]
        body = encode_records(records[:10])[:-7]  # tear mid-record 10
        daemon.raw(
            f"POST /sessions/{sid}/records HTTP/1.1\r\n"
            f"Host: x\r\nContent-Type: {CONTENT_TYPE_BINARY}\r\n"
            f"Content-Length: {len(body) + 13}\r\n\r\n".encode() + body)
        # Daemon is alive and the session still accepts work.
        assert client.health()["ok"]
        client.ingest(sid, records)
        assert client.close_session(sid)["status"]["state"] == "closed"

    def test_one_shot_body_ending_mid_record_is_typed_400(self, daemon):
        records = _trace(scale=0.004)
        client = daemon.client
        sid = client.create_session()["id"]
        torn = encode_records(records[:5])[:-3]
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", f"/sessions/{sid}/records", body=torn,
                            content_type=CONTENT_TYPE_BINARY)
        error = excinfo.value
        assert error.code == "partial_record"
        assert "4 complete record(s)" in error.message
        # The complete records before the tear were kept.
        assert client.session(sid)["ingested_records"] == 4

    def test_out_of_order_operations_are_typed_409(self, daemon):
        records = _trace(scale=0.002)
        client = daemon.client
        sid = client.create_session()["id"]
        with pytest.raises(ServiceError) as excinfo:
            client.resume(sid)  # resume before suspend
        assert excinfo.value.code == "invalid_state"
        client.ingest(sid, records)
        client.close_session(sid)
        with pytest.raises(ServiceError) as excinfo:
            client.ingest(sid, records)  # ingest after close
        assert excinfo.value.code == "invalid_state"
        with pytest.raises(ServiceError) as excinfo:
            client.suspend(sid)  # suspend after close
        assert excinfo.value.code == "invalid_state"

    def test_oversized_chunk_is_typed_413(self, daemon):
        client = daemon.client
        sid = client.create_session()["id"]
        too_big = LIMITS.max_chunk_bytes + 20
        head = (f"POST /sessions/{sid}/records HTTP/1.1\r\n"
                f"Host: x\r\nContent-Type: {CONTENT_TYPE_BINARY}\r\n"
                f"Transfer-Encoding: chunked\r\n\r\n"
                f"{too_big:x}\r\n").encode()
        with socket.create_connection(("127.0.0.1", daemon.server.port),
                                      timeout=5) as sock:
            sock.sendall(head)
            response = sock.recv(65536).decode()
        assert "413" in response.splitlines()[0]
        assert json.loads(response.split("\r\n\r\n", 1)[1])["error"][
            "code"] == "too_large"
        assert client.health()["ok"]

    def test_oversized_body_is_typed_413(self, daemon):
        client = daemon.client
        sid = client.create_session()["id"]
        head = (f"POST /sessions/{sid}/records HTTP/1.1\r\n"
                f"Host: x\r\nContent-Type: {CONTENT_TYPE_BINARY}\r\n"
                f"Content-Length: {LIMITS.max_body_bytes + 1}\r\n\r\n"
                ).encode()
        with socket.create_connection(("127.0.0.1", daemon.server.port),
                                      timeout=5) as sock:
            sock.sendall(head)
            response = sock.recv(65536).decode()
        assert "413" in response.splitlines()[0]

    def test_error_mid_chunked_body_drops_keep_alive(self, daemon):
        """An error answered before the body is consumed must close the
        connection: the unread body bytes would otherwise be parsed as
        the next request head, yielding spurious 400s."""
        client = daemon.client
        sid = client.create_session()["id"]
        payload = (f"POST /sessions/{sid}/records HTTP/1.1\r\n"
                   f"Host: x\r\nContent-Type: {CONTENT_TYPE_BINARY}\r\n"
                   f"Transfer-Encoding: chunked\r\n\r\n"
                   f"zz\r\n").encode()  # malformed chunk-size line
        with socket.create_connection(("127.0.0.1", daemon.server.port),
                                      timeout=5) as sock:
            sock.sendall(payload)
            data = b""
            while True:  # server must close; a retained keep-alive hangs
                got = sock.recv(65536)
                if not got:
                    break
                data += got
        assert b"400" in data.splitlines()[0]
        assert data.count(b"HTTP/1.1") == 1  # one response, then close
        assert client.health()["ok"]

    def test_trailing_slash_session_path_is_typed_404(self, daemon):
        client = daemon.client
        for path in ("/sessions/", "/sessions//records"):
            with pytest.raises(ServiceError) as excinfo:
                client._request("GET", path)
            assert excinfo.value.code == "not_found"
        assert client.health()["ok"]

    def test_unknown_routes_and_malformed_json_are_typed(self, daemon):
        client = daemon.client
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.code == "not_found"
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/sessions", body=b"{not json")
        assert excinfo.value.code == "bad_request"
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/sessions", body=b"[1,2]")
        assert excinfo.value.code == "bad_request"

    @pytest.mark.parametrize(
        "content_type, encode",
        [(CONTENT_TYPE_NDJSON, encode_records_ndjson),
         (CONTENT_TYPE_BINARY, encode_records)],
        ids=["ndjson", "binary"])
    def test_malformed_record_is_typed_400(self, daemon, content_type,
                                           encode):
        # Both encodings refuse what TraceRecord.validate refuses, before
        # any record of the body reaches the queue.
        client = daemon.client
        sid = client.create_session()["id"]
        good = TraceRecord(address=0x1000, length=4)
        malformed = (
            TraceRecord(address=0x1004, length=3),
            TraceRecord(address=0x1004, length=4, kind=BranchKind.COND,
                        taken=True),
        )
        for bad in malformed:
            with pytest.raises(ServiceError) as excinfo:
                client._request(
                    "POST", f"/sessions/{sid}/records",
                    body=encode([good, bad]), content_type=content_type)
            assert excinfo.value.status == 400
            assert excinfo.value.code == "bad_request"
        assert client.session(sid)["ingested_records"] == 0
        assert client.health()["ok"]


class TestBackpressureOverHttp:
    def test_one_shot_overflow_answers_429_with_retry_after(self, tmp_path):
        limits = ServiceLimits(queue_records=64, chunk_records=16,
                               sweep_interval=0.05)
        daemon = _Daemon(tmp_path, limits=limits)
        try:
            records = _trace(scale=0.002)
            sid = daemon.client.create_session()["id"]
            with pytest.raises(ServiceError) as excinfo:
                daemon.client.ingest(sid, records)
            error = excinfo.value
            assert error.status == 429
            assert error.code == "saturated"
            assert error.retry_after > 0
        finally:
            daemon.stop()

    def test_streaming_through_a_tiny_queue_completes(self, tmp_path):
        limits = ServiceLimits(queue_records=256, chunk_records=64,
                               sweep_interval=0.05)
        daemon = _Daemon(tmp_path, limits=limits)
        try:
            records = _trace(scale=0.004)
            sid = daemon.client.create_session()["id"]
            streamed = daemon.client.stream(sid, records, chunk_records=100)
            assert streamed["accepted"] == len(records)
            closed = daemon.client.close_session(sid)
            assert closed["result"]["counters"] == _expected(records)
        finally:
            daemon.stop()


class TestMetricsEndpoint:
    def test_prometheus_scrape_parses_and_counts(self, daemon):
        records = _trace(scale=0.004)
        client = daemon.client
        sid = client.create_session()["id"]
        client.stream(sid, records)
        client.wait_processed(sid, len(records))
        families = parse_prometheus(client.metrics_text())
        assert "repro_service_requests_total" in families
        assert "repro_service_sessions" in families
        records_total = families["repro_service_records_total"]
        assert sum(records_total["samples"].values()) == len(records)
        # Per-session series are merged into the scrape.
        assert "repro_session_processed_records_total" in families

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_scrape_counts_resumes_by_result(self, tmp_path, backend):
        """A resumed, a stale and a pruned spool entry each show on the
        scrape under their own ``repro_service_resumes_total`` result."""
        daemon = _Daemon(tmp_path, backend=backend)
        try:
            client = daemon.client
            spool = CheckpointStore(daemon.spool)

            def suspended() -> tuple[str, Path]:
                before = set(spool.entries())
                sid = client.create_session()["id"]
                client.suspend(sid)
                (path,) = set(spool.entries()) - before
                return sid, path

            resumed, _ = suspended()
            client.resume(resumed)
            stale, path = suspended()
            state = load_state(path)
            state["version"] = 99
            save_state(path, state)
            pruned, path = suspended()
            path.unlink()
            for sid, problem in ((stale, "schema version 99"),
                                 (pruned, "no checkpoint")):
                with pytest.raises(ServiceError) as excinfo:
                    client.resume(sid)
                assert excinfo.value.code == "invalid_state"
                assert problem in excinfo.value.message
            samples = parse_prometheus(client.metrics_text())[
                "repro_service_resumes_total"]["samples"]
            assert samples == {
                ("repro_service_resumes_total", (("result", result),)): 1.0
                for result in ("resumed", "refused", "missing")}
        finally:
            daemon.stop()
