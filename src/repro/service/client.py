"""Blocking client for the simulation daemon (stdlib ``http.client``).

The library behind the ``repro session`` CLI and the service tests.  One
HTTP connection per call keeps the client trivially thread-safe; the
daemon's keep-alive support exists for long-lived streaming ingest, which
:meth:`ServiceClient.stream` uses via chunked transfer encoding.

Errors come back typed: any non-2xx response whose body carries the
service's JSON error envelope re-raises as the matching
:class:`~repro.service.protocol.ServiceError` — same status, code,
message, and ``retry_after`` the daemon produced — so callers switch on
``error.code`` exactly as server-side code does.  A daemon that cannot be
reached at all raises :class:`ServiceUnavailable` instead.
"""

from __future__ import annotations

import http.client
import json
import socket
import time

from repro.service.protocol import (
    CONTENT_TYPE_BINARY,
    CONTENT_TYPE_JSON,
    CONTENT_TYPE_NDJSON,
    ServiceError,
    encode_records,
    encode_records_ndjson,
)


class ServiceUnavailable(ConnectionError):
    """No daemon is answering at the configured address."""


class ServiceClient:
    """A small typed client for one daemon address."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- transport ---------------------------------------------------------

    def _request(self, method: str, path: str, *, body: bytes | None = None,
                 content_type: str = CONTENT_TYPE_JSON,
                 chunked: bool = False) -> dict:
        """One round trip; decodes the JSON body or raises typed errors."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            headers = {"Content-Type": content_type}
            connection.request(method, path, body=body, headers=headers,
                               encode_chunked=chunked)
            response = connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as problem:
            raise ServiceUnavailable(
                f"no daemon at {self.host}:{self.port}: {problem}"
            ) from problem
        finally:
            connection.close()
        payload = self._decode(response, raw)
        if response.status >= 400:
            error = payload.get("error", {}) if isinstance(payload, dict) \
                else {}
            raise ServiceError(
                response.status,
                error.get("code", "internal"),
                error.get("message", raw.decode(errors="replace")),
                retry_after=error.get("retry_after"))
        return payload

    @staticmethod
    def _decode(response, raw: bytes):
        """The response body: JSON when declared, text otherwise."""
        declared = response.getheader("Content-Type", "")
        if declared.split(";", 1)[0].strip() == CONTENT_TYPE_JSON:
            try:
                return json.loads(raw) if raw else {}
            except ValueError:
                return {}
        return raw.decode(errors="replace")

    # -- server-level calls ------------------------------------------------

    def health(self) -> dict:
        """``GET /healthz``."""
        return self._request("GET", "/healthz")

    def metrics_text(self) -> str:
        """``GET /metrics`` — the Prometheus exposition text."""
        return self._request("GET", "/metrics")

    def shutdown(self) -> dict:
        """``POST /admin/shutdown`` — begin graceful drain."""
        return self._request("POST", "/admin/shutdown")

    # -- session lifecycle -------------------------------------------------

    def create_session(self, config: str = "2", engine: str = "auto",
                       label: str = "", session_id: str | None = None,
                       resume: bool = False) -> dict:
        """Create a session; returns its status (including ``id``).

        ``session_id`` + ``resume=True`` re-registers a session a
        previous daemon suspended to the shared spool (same config);
        follow with :meth:`resume` to reload its state.  The daemon
        refuses an unknown ``engine`` name; every known one runs the one
        engine.
        """
        payload: dict = {"config": config, "engine": engine, "label": label}
        if session_id is not None:
            payload["id"] = session_id
        if resume:
            payload["resume"] = True
        return self._request("POST", "/sessions",
                             body=json.dumps(payload).encode())

    def list_sessions(self) -> list[dict]:
        """Statuses of every registered session."""
        return self._request("GET", "/sessions")["sessions"]

    def session(self, session_id: str) -> dict:
        """One session's status."""
        return self._request("GET", f"/sessions/{session_id}")

    def delete_session(self, session_id: str) -> dict:
        """Forget a session in any state."""
        return self._request("DELETE", f"/sessions/{session_id}")

    def suspend(self, session_id: str) -> dict:
        """Drain and snapshot a session to the daemon's spool."""
        return self._request("POST", f"/sessions/{session_id}/suspend")

    def resume(self, session_id: str) -> dict:
        """Reload a suspended session from the spool."""
        return self._request("POST", f"/sessions/{session_id}/resume")

    def close_session(self, session_id: str) -> dict:
        """Drain, finish, and return ``{"status", "result"}``."""
        return self._request("POST", f"/sessions/{session_id}/close")

    def result(self, session_id: str) -> dict:
        """The final result of a closed session."""
        return self._request("GET", f"/sessions/{session_id}/result")

    # -- data plane --------------------------------------------------------

    def ingest(self, session_id: str, records, *,
               ndjson: bool = False) -> dict:
        """One-shot ingest (all-or-nothing; 429 + ``retry_after`` raises)."""
        if ndjson:
            body = encode_records_ndjson(records)
            content_type = CONTENT_TYPE_NDJSON
        else:
            body = encode_records(records)
            content_type = CONTENT_TYPE_BINARY
        return self._request("POST", f"/sessions/{session_id}/records",
                             body=body, content_type=content_type)

    def stream(self, session_id: str, records, *,
               chunk_records: int = 1024) -> dict:
        """Streaming ingest over one kept-open chunked request.

        The daemon enqueues each chunk as it decodes and exerts
        backpressure by pausing the read when a queue fills, so this
        call can feed arbitrarily long traces without 429 churn.
        """
        def chunks():
            batch = []
            for record in records:
                batch.append(record)
                if len(batch) >= chunk_records:
                    yield encode_records(batch)
                    batch = []
            if batch:
                yield encode_records(batch)

        return self._request("POST", f"/sessions/{session_id}/records",
                             body=chunks(), content_type=CONTENT_TYPE_BINARY,
                             chunked=True)

    def reports(self, session_id: str, since: int = 0) -> dict:
        """Per-chunk reports with sequence numbers above ``since``."""
        return self._request(
            "GET", f"/sessions/{session_id}/reports?since={since}")

    def session_metrics(self, session_id: str) -> dict:
        """One session's metrics registry snapshot."""
        return self._request("GET", f"/sessions/{session_id}/metrics")

    # -- conveniences ------------------------------------------------------

    def wait_processed(self, session_id: str, count: int, *,
                       timeout: float = 60.0, poll: float = 0.05) -> dict:
        """Poll until ``processed_records >= count`` (or the queue empties
        into a terminal state); returns the last status seen."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.session(session_id)
            if status["processed_records"] >= count:
                return status
            if status["state"] == "failed":
                raise ServiceError.internal(
                    f"session failed while waiting: {status['error']}")
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"session {session_id} processed "
                    f"{status['processed_records']}/{count} records within "
                    f"{timeout}s")
            time.sleep(poll)

    def wait_healthy(self, *, timeout: float = 10.0,
                     poll: float = 0.05) -> dict:
        """Poll ``/healthz`` until the daemon answers (startup races)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except ServiceUnavailable:
                if time.monotonic() > deadline:
                    raise
                time.sleep(poll)


def _probe_port(host: str, port: int, timeout: float = 0.25) -> bool:
    """True when something is listening at ``host:port`` (CLI probes)."""
    try:
        with socket.create_connection((host, port), timeout=timeout):
            return True
    except OSError:
        return False
