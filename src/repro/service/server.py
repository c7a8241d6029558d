"""The simulation daemon: a hand-rolled asyncio HTTP/1.1 server.

``repro serve`` binds this server.  It is deliberately stdlib-only —
:func:`asyncio.start_server` plus a small HTTP/1.1 reader supporting
``Content-Length`` bodies, ``Transfer-Encoding: chunked`` ingest streams,
and keep-alive — because the container bakes in no web framework and the
API surface is small:

====== =============================== =======================================
Method Path                            Meaning
====== =============================== =======================================
GET    ``/healthz``                    liveness + drain state
GET    ``/metrics``                    Prometheus exposition (server + all
                                       sessions, merged)
POST   ``/sessions``                   create a session
GET    ``/sessions``                   list session statuses
GET    ``/sessions/{id}``              one session's status
DELETE ``/sessions/{id}``              forget a session (any state)
POST   ``/sessions/{id}/records``      ingest trace records (binary or
                                       NDJSON; one-shot or chunked stream)
GET    ``/sessions/{id}/reports``      per-chunk reports since ``?since=N``
GET    ``/sessions/{id}/metrics``      one session's metrics JSON snapshot
POST   ``/sessions/{id}/suspend``      drain + snapshot to the spool
POST   ``/sessions/{id}/resume``       reload from the spool
POST   ``/sessions/{id}/close``        drain + ``finish()`` -> final result
GET    ``/sessions/{id}/result``       the final result of a closed session
POST   ``/admin/shutdown``             begin graceful drain (also SIGTERM)
====== =============================== =======================================

Every error is a typed JSON envelope (:class:`ServiceError`); a malformed
request, a torn ingest body, or an out-of-order lifecycle call can never
crash the daemon or leak a traceback to the wire.  Graceful drain — via
SIGTERM, SIGINT, or ``/admin/shutdown`` — stops accepting new work,
simulates every queued record, suspends live sessions to the checkpoint
spool, and only then exits.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from urllib.parse import parse_qs, urlsplit

from repro.sampling import CheckpointStore
from repro.service.protocol import (
    CONTENT_TYPE_BINARY,
    CONTENT_TYPE_JSON,
    CONTENT_TYPE_NDJSON,
    ServiceError,
    ServiceLimits,
    record_from_json,
)
from repro.service.session import SessionManager
from repro.telemetry.metrics import MetricsRegistry
from repro.trace.reader import TraceStreamDecoder

#: Reasons a client connection can die mid-request without it being a
#: server bug: TCP resets, pipes closing, and asyncio's torn-read errors.
_CONNECTION_TORN = (ConnectionError, asyncio.IncompleteReadError, BrokenPipeError)

_STATUS_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    409: "Conflict", 413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class _Request:
    """One parsed HTTP request head (body is read by the handler)."""

    def __init__(self, method: str, target: str,
                 headers: dict[str, str]) -> None:
        self.method = method
        self.target = target
        self.headers = headers
        split = urlsplit(target)
        self.path = split.path
        self.query = {key: values[-1]
                      for key, values in parse_qs(split.query).items()}
        #: Whether the request body has been read off the socket in
        #: full.  An error raised while this is still False leaves
        #: unread body bytes on the connection, so keep-alive must be
        #: dropped or the next head parse reads garbage.
        self.body_consumed = (not self.chunked and
                              headers.get("content-length", "0").strip()
                              in ("", "0"))

    @property
    def chunked(self) -> bool:
        """True when the body uses ``Transfer-Encoding: chunked``."""
        return "chunked" in self.headers.get("transfer-encoding", "").lower()

    def content_type(self, default: str = CONTENT_TYPE_JSON) -> str:
        """The media type of the request body (parameters stripped)."""
        raw = self.headers.get("content-type", default)
        return raw.split(";", 1)[0].strip().lower() or default


class ServiceServer:
    """The daemon: HTTP front end over one :class:`SessionManager`.

    ``spool`` (a directory path) enables suspend/resume and graceful
    drain; without it those operations answer a typed 409.  ``port=0``
    binds an ephemeral port — read :attr:`port` after :meth:`start`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 limits: ServiceLimits | None = None,
                 backend: str = "thread", jobs: int = 4,
                 spool=None, spool_max_entries: int | None = None,
                 registry: MetricsRegistry | None = None) -> None:
        self.host = host
        self.port = port
        self.limits = limits if limits is not None else ServiceLimits()
        self.registry = registry if registry is not None else MetricsRegistry()
        store = CheckpointStore(spool) if spool is not None else None
        self.manager = SessionManager(
            limits=self.limits, backend=backend, jobs=jobs, store=store,
            store_max_entries=spool_max_entries, registry=self.registry)
        self._server: asyncio.base_events.Server | None = None
        self._shutdown = asyncio.Event()
        self._draining = False
        self._connections: set[asyncio.Task] = set()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start the dispatcher (idempotent)."""
        if self._server is not None:
            return
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.manager.start()

    def request_shutdown(self) -> None:
        """Begin graceful drain (idempotent; signal-handler safe)."""
        self._draining = True
        self._shutdown.set()

    async def stop(self, *, drain: bool = True) -> None:
        """Close the listener and stop the manager."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.manager.stop(drain=drain)
        # Python < 3.13 Server.close() leaves accepted connections open;
        # cancel idle keep-alive handlers so the loop can wind down clean.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    async def serve(self, *, install_signal_handlers: bool = True) -> None:
        """Run until SIGTERM/SIGINT/``/admin/shutdown``, then drain."""
        await self.start()
        loop = asyncio.get_running_loop()
        installed: list[signal.Signals] = []
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_shutdown)
                except (NotImplementedError, ValueError, RuntimeError):
                    continue
                installed.append(signum)
        try:
            await self._shutdown.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await self.stop(drain=True)

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """Serve keep-alive requests on one connection until it closes."""
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                request = await self._read_head(reader)
                if request is None:
                    break
                keep_alive = await self._handle_request(
                    request, reader, writer)
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            pass  # daemon shutdown reaping an idle keep-alive connection
        except _CONNECTION_TORN:
            self.registry.counter(
                "repro_service_connections_torn_total",
                "client connections dropped mid-request",
            ).inc()
        except ServiceError as error:
            # Head-level failures (oversized head, bad chunk framing).
            try:
                await self._respond_error(writer, error)
            except _CONNECTION_TORN:
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except _CONNECTION_TORN:
                pass

    async def _read_head(self, reader: asyncio.StreamReader) -> _Request | None:
        """Parse one request head; ``None`` on a clean EOF between requests."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as eof:
            if not eof.partial:
                return None
            raise
        except asyncio.LimitOverrunError:
            raise ServiceError.too_large("request head exceeds limit") from None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise ServiceError.bad_request(f"malformed request line {lines[0]!r}")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, separator, value = line.partition(":")
            if not separator:
                raise ServiceError.bad_request(f"malformed header {line!r}")
            headers[name.strip().lower()] = value.strip()
        return _Request(parts[0].upper(), parts[1], headers)

    async def _handle_request(self, request: _Request,
                              reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> bool:
        """Route one request; returns whether to keep the connection."""
        started = time.perf_counter()
        keep_alive = request.headers.get("connection", "").lower() != "close"
        status = 200
        try:
            handled = await self._route(request, reader, writer)
            if handled is not None:  # streaming routes respond themselves
                status, payload, content_type = handled
                await self._respond(writer, status, payload, content_type)
        except ServiceError as error:
            status = error.status
            await self._respond_error(writer, error)
            if error.code == "partial_record" or not request.body_consumed:
                keep_alive = False  # body framing is no longer trustworthy
        except _CONNECTION_TORN:
            raise
        except Exception as problem:  # noqa: BLE001 - daemon must stay up
            status = 500
            await self._respond_error(
                writer,
                ServiceError.internal(f"{type(problem).__name__}: {problem}"))
            keep_alive = False
        self.registry.counter(
            "repro_service_requests_total",
            "HTTP requests by method and status",
            ("method", "code"),
        ).inc(method=request.method, code=str(status))
        self.registry.histogram(
            "repro_service_request_seconds",
            "wall seconds per HTTP request",
        ).observe(time.perf_counter() - started)
        return keep_alive

    # -- body readers ------------------------------------------------------

    async def _read_body(self, request: _Request,
                         reader: asyncio.StreamReader) -> bytes:
        """One-shot body via ``Content-Length`` (capped)."""
        raw = request.headers.get("content-length", "0")
        try:
            length = int(raw)
        except ValueError:
            raise ServiceError.bad_request(
                f"malformed Content-Length {raw!r}") from None
        if length < 0:
            raise ServiceError.bad_request(f"negative Content-Length {length}")
        if length > self.limits.max_body_bytes:
            raise ServiceError.too_large(
                f"body of {length} bytes exceeds the "
                f"{self.limits.max_body_bytes}-byte cap")
        if length == 0:
            request.body_consumed = True
            return b""
        body = await reader.readexactly(length)
        request.body_consumed = True
        return body

    async def _iter_chunks(self, request: _Request,
                           reader: asyncio.StreamReader):
        """Yield ``Transfer-Encoding: chunked`` body chunks (capped)."""
        while True:
            line = await reader.readline()
            if not line:
                raise asyncio.IncompleteReadError(b"", None)
            try:
                size = int(line.split(b";", 1)[0].strip() or b"0", 16)
            except ValueError:
                raise ServiceError.bad_request(
                    f"malformed chunk size line {line!r}") from None
            if size == 0:
                await reader.readline()  # final CRLF; trailers unsupported
                request.body_consumed = True
                return
            if size > self.limits.max_chunk_bytes:
                raise ServiceError.too_large(
                    f"chunk of {size} bytes exceeds the "
                    f"{self.limits.max_chunk_bytes}-byte cap")
            chunk = await reader.readexactly(size)
            await reader.readexactly(2)  # trailing CRLF
            yield chunk

    async def _read_json(self, request: _Request,
                         reader: asyncio.StreamReader) -> dict:
        """A JSON-object request body (empty body -> empty object)."""
        body = await self._read_body(request, reader)
        if not body:
            return {}
        try:
            payload = json.loads(body)
        except ValueError as problem:
            raise ServiceError.bad_request(
                f"request body is not JSON: {problem}") from None
        if not isinstance(payload, dict):
            raise ServiceError.bad_request(
                f"request body must be a JSON object, "
                f"got {type(payload).__name__}")
        return payload

    # -- responses ---------------------------------------------------------

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload, content_type: str = CONTENT_TYPE_JSON,
                       extra: dict[str, str] | None = None) -> None:
        """Write one response (JSON payloads are serialized here)."""
        if isinstance(payload, bytes):
            body = payload
        elif isinstance(payload, str):
            body = payload.encode()
        else:
            body = json.dumps(payload, separators=(",", ":")).encode()
        reason = _STATUS_REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(body)}"]
        for name, value in (extra or {}).items():
            head.append(f"{name}: {value}")
        writer.write("\r\n".join(head).encode() + b"\r\n\r\n" + body)
        await writer.drain()

    async def _respond_error(self, writer: asyncio.StreamWriter,
                             error: ServiceError) -> None:
        """Write one typed JSON error envelope."""
        extra = {}
        if error.retry_after is not None:
            extra["Retry-After"] = f"{error.retry_after:g}"
        await self._respond(writer, error.status, error.payload(),
                            extra=extra)

    # -- routing -----------------------------------------------------------

    async def _route(self, request: _Request,
                     reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter):
        """Dispatch one request; returns ``(status, payload, ctype)``."""
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            return 200, {
                "ok": True,
                "draining": self._draining,
                "sessions": len(self.manager.sessions),
            }, CONTENT_TYPE_JSON
        if path == "/metrics" and method == "GET":
            return 200, self._scrape(), "text/plain; version=0.0.4"
        if path == "/admin/shutdown" and method == "POST":
            await self._read_body(request, reader)
            self.request_shutdown()
            return 200, {"ok": True, "draining": True}, CONTENT_TYPE_JSON
        if path == "/sessions" and method == "POST":
            if self._draining:
                raise ServiceError.draining()
            payload = await self._read_json(request, reader)
            session = self.manager.create(
                config_key=payload.get("config", "2"),
                engine_mode=payload.get("engine", "auto"),
                label=payload.get("label", ""),
                session_id=payload.get("id"),
                resume=bool(payload.get("resume", False)))
            return 201, session.status(), CONTENT_TYPE_JSON
        if path == "/sessions" and method == "GET":
            statuses = [session.status()
                        for session in self.manager.sessions.values()]
            return 200, {"sessions": statuses}, CONTENT_TYPE_JSON
        if path.startswith("/sessions/"):
            return await self._route_session(request, reader)
        raise ServiceError.not_found(f"{method} {path}")

    async def _route_session(self, request: _Request,
                             reader: asyncio.StreamReader):
        """Routes under ``/sessions/{id}``."""
        parts = request.path.strip("/").split("/")
        if len(parts) < 2 or not parts[1]:
            raise ServiceError.not_found(request.path)
        session = self.manager.get(parts[1])
        action = parts[2] if len(parts) > 2 else None
        method = request.method
        if len(parts) > 3:
            raise ServiceError.not_found(request.path)
        if action is None:
            if method == "GET":
                return 200, session.status(), CONTENT_TYPE_JSON
            if method == "DELETE":
                await self._read_body(request, reader)
                self.manager.delete(session.id)
                return 200, {"deleted": session.id}, CONTENT_TYPE_JSON
            raise ServiceError.not_found(f"{method} {request.path}")
        if action == "records" and method == "POST":
            if self._draining:
                raise ServiceError.draining()
            return await self._ingest(request, reader, session)
        if action == "reports" and method == "GET":
            try:
                since = int(request.query.get("since", "0"))
            except ValueError:
                raise ServiceError.bad_request(
                    "query parameter 'since' must be an integer") from None
            return 200, self.manager.poll_reports(session, since), \
                CONTENT_TYPE_JSON
        if action == "metrics" and method == "GET":
            return 200, session.registry.snapshot(), CONTENT_TYPE_JSON
        if action == "suspend" and method == "POST":
            await self._read_body(request, reader)
            saved = await self.manager.suspend(session)
            return 200, {**session.status(), **saved}, CONTENT_TYPE_JSON
        if action == "resume" and method == "POST":
            await self._read_body(request, reader)
            await self.manager.resume(session)
            return 200, session.status(), CONTENT_TYPE_JSON
        if action == "close" and method == "POST":
            await self._read_body(request, reader)
            result = await self.manager.close(session)
            return 200, {"status": session.status(), "result": result}, \
                CONTENT_TYPE_JSON
        if action == "result" and method == "GET":
            if session.result is None:
                raise ServiceError.invalid_state(
                    f"session {session.id} is {session.state!r}; "
                    f"close it to produce a result")
            return 200, {"status": session.status(),
                         "result": session.result}, CONTENT_TYPE_JSON
        raise ServiceError.not_found(f"{method} {request.path}")

    # -- ingest ------------------------------------------------------------

    async def _ingest(self, request: _Request,
                      reader: asyncio.StreamReader, session):
        """``POST /sessions/{id}/records``: both ingest shapes.

        A ``Content-Length`` body is a one-shot ingest: decoded in full,
        enqueued all-or-nothing (429 + ``retry_after`` when the queue
        cannot take it).  A chunked body is a kept-open stream: records
        are enqueued as each chunk decodes, and a full queue exerts
        TCP backpressure by pausing the read loop instead of failing.
        A body that ends mid-record keeps every complete record and
        answers a typed ``partial_record`` error.
        """
        content_type = request.content_type(CONTENT_TYPE_BINARY)
        if content_type not in (CONTENT_TYPE_BINARY, CONTENT_TYPE_NDJSON):
            raise ServiceError.bad_request(
                f"unsupported ingest content type {content_type!r}; expected "
                f"{CONTENT_TYPE_BINARY} or {CONTENT_TYPE_NDJSON}")
        binary = content_type == CONTENT_TYPE_BINARY
        decoder = TraceStreamDecoder() if binary else _NdjsonDecoder()
        accepted = 0
        if request.chunked:
            async for chunk in self._iter_chunks(request, reader):
                records = self._decode(decoder, chunk)
                accepted += await self.manager.enqueue(
                    session, records, wait=True)
        else:
            body = await self._read_body(request, reader)
            records = self._decode(decoder, body)
            accepted += await self.manager.enqueue(
                session, records, wait=False)
        if decoder.pending:
            raise ServiceError.partial_record(decoder.pending, accepted)
        return 200, {"accepted": accepted,
                     "ingested": session.ingested,
                     "pending": len(session.pending),
                     "free": self.manager.free_capacity(session)}, \
            CONTENT_TYPE_JSON

    @staticmethod
    def _decode(decoder, data: bytes) -> list:
        """Feed ingest bytes through either decoder; typed errors out.

        NDJSON records are validated as they parse; packed records are
        validated here, so both encodings refuse the same records before
        any of them is queued.
        """
        try:
            records = decoder.feed(data)
            if isinstance(decoder, TraceStreamDecoder):
                for record in records:
                    record.validate()
        except ValueError as problem:
            raise ServiceError.bad_request(str(problem)) from None
        return records

    # -- metrics -----------------------------------------------------------

    def _scrape(self) -> str:
        """The merged Prometheus exposition: server plus every session."""
        merged = MetricsRegistry()
        merged.merge(self.registry)
        for session in self.manager.sessions.values():
            merged.merge(session.registry)
        return merged.to_prometheus()


class _NdjsonDecoder:
    """Incremental NDJSON record decoder mirroring the binary decoder.

    Buffers a trailing partial line across :meth:`feed` calls; a
    non-empty buffer at end of body is the NDJSON form of a mid-record
    tear.
    """

    def __init__(self) -> None:
        self._buffer = b""

    def feed(self, data: bytes) -> list:
        """Decode the complete lines in ``data`` (+ buffered remainder)."""
        self._buffer += data
        if b"\n" not in self._buffer:
            return []
        complete, self._buffer = self._buffer.rsplit(b"\n", 1)
        records = []
        for line in complete.split(b"\n"):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError as problem:
                raise ServiceError.bad_request(
                    f"malformed NDJSON record line: {problem}") from None
            records.append(record_from_json(payload))
        return records

    @property
    def pending(self) -> int:
        """Bytes of trailing partial line held back."""
        return len(self._buffer)
