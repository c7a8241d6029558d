"""Compact on-disk trace format (reader side).

See :mod:`repro.trace.writer` for the format definition and version history.

Two access styles are provided:

* :func:`iter_trace` / :func:`load_trace` — forward streaming / full
  materialization over an already-open stream or a path.
* :func:`open_trace` / :class:`TraceFile` — random access over the file.
  Because every record is a fixed :data:`~repro.trace.writer.RECORD` size,
  ``TraceFile`` can seek straight to record *i* and stream any
  ``[start, stop)`` window without touching the rest of the file.  The
  sampled-simulation fast-forward path uses this so warming a trace never
  requires materializing millions of ``TraceRecord`` objects up front.

Every reader decodes through :func:`_decode_records`: one
``RECORD.iter_unpack`` pass over the bytes read, with a memo that hands
back one shared ``TraceRecord`` per distinct packed value.  Records are
immutable and nothing depends on their identity, so sharing them changes
only time and memory: a trace revisits the same instructions, and few of
its records are distinct (36,859 of the 510,000 records of DayTrader
DBServ at scale 0.3).  Each caller bounds the memo's scope to what it
already holds: :func:`load_trace` keeps one memo for the whole file (the
list it returns holds every record anyway); streaming readers keep one per
read chunk of :data:`CHUNK_RECORDS` records (:func:`iter_trace`,
:meth:`TraceFile.iter_from`) or per :meth:`TraceStreamDecoder.feed` call,
so neither a long sampled window nor a service session can grow it.
"""

from __future__ import annotations

import os
from typing import BinaryIO, Iterator

from repro.trace.record import TraceRecord
from repro.trace.writer import (
    CODE_KINDS,
    HEADER,
    MAGIC,
    RECORD,
    SUPPORTED_VERSIONS,
    TAKEN_BIT,
    TARGET_VALID_BIT,
    VERSION,
)


#: Records per sequential read of a streaming reader, and so the scope of
#: its decode memo.
CHUNK_RECORDS = 4096


class TraceFormatError(ValueError):
    """Raised when a trace stream does not conform to the format."""


def read_header(stream: BinaryIO) -> tuple[int, int]:
    """Consume and validate the header; return ``(record count, version)``."""
    raw = stream.read(HEADER.size)
    if len(raw) != HEADER.size:
        raise TraceFormatError("truncated trace header")
    magic, version, count = HEADER.unpack(raw)
    if magic != MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}")
    if version not in SUPPORTED_VERSIONS:
        raise TraceFormatError(f"unsupported trace version {version}")
    return count, version


def _decode(raw: bytes, version: int) -> TraceRecord:
    """Decode one packed record according to ``version``."""
    meta, address, target = RECORD.unpack(raw)
    kind = CODE_KINDS.get((meta >> 3) & 0x7)
    taken = bool(meta & TAKEN_BIT)
    if version >= 2:
        has_target = bool(meta & TARGET_VALID_BIT)
    else:
        # v1 wrote no target-valid bit; reconstruct with the historical
        # heuristic (lossy for not-taken branches carrying a target).
        has_target = bool(taken or (kind is not None and target))
    return TraceRecord(
        address=address,
        length=meta & 0x7,
        kind=kind,
        taken=taken,
        target=target if has_target else None,
    )


def _decode_records(raw, version: int, memo: dict) -> list[TraceRecord]:
    """Decode ``raw``, a whole number of packed records, in order.

    ``memo`` maps each packed ``(meta, address, target)`` value already
    decoded to its record, so equal packed records come back as one
    object.  A miss re-packs the fields for :func:`_decode`, which stays
    the one per-record decoder.
    """
    records: list[TraceRecord] = []
    append = records.append
    get = memo.get
    pack = RECORD.pack
    for fields in RECORD.iter_unpack(raw):
        record = get(fields)
        if record is None:
            record = memo[fields] = _decode(pack(*fields), version)
        append(record)
    return records


def _read_chunks(stream: BinaryIO,
                 memo: dict | None) -> Iterator[list[TraceRecord]]:
    """Decode a headed stream in chunks, validating the record count.

    The stream must contain exactly the declared number of records: both a
    short read and trailing bytes after the last record raise
    :class:`TraceFormatError`, a short read only after the records before
    the first missing one were yielded.  ``memo`` is shared by every chunk;
    ``None`` gives each chunk its own.
    """
    count, version = read_header(stream)
    size = RECORD.size
    index = 0
    while index < count:
        batch = min(CHUNK_RECORDS, count - index)
        raw = stream.read(batch * size)
        complete = len(raw) // size
        chunk_memo = {} if memo is None else memo
        if complete != batch:
            yield _decode_records(raw[:complete * size], version, chunk_memo)
            raise TraceFormatError(
                f"truncated at record {index + complete}/{count}"
            )
        yield _decode_records(raw, version, chunk_memo)
        index += batch
    if stream.read(1):
        raise TraceFormatError(
            f"trailing bytes after declared record count {count}"
        )


def iter_trace(stream: BinaryIO) -> Iterator[TraceRecord]:
    """Yield records from an open trace stream, validating the count.

    The stream must contain exactly the declared number of records: both a
    short read and trailing bytes after the last record raise
    :class:`TraceFormatError`.
    """
    for records in _read_chunks(stream, None):
        yield from records


def load_trace(path) -> list[TraceRecord]:
    """Read the entire trace at ``path`` into memory."""
    records: list[TraceRecord] = []
    with open(path, "rb") as stream:
        for chunk in _read_chunks(stream, {}):
            records.extend(chunk)
    return records


class TraceFile:
    """Random-access view of an on-disk trace.

    Keeps only the open file handle; records are decoded on demand.  Usable
    as a context manager and as a sequence-like source of windows::

        with open_trace(path) as trace:
            for record in trace.iter_from(1_000_000, 1_010_000):
                ...
    """

    def __init__(self, path) -> None:
        self.path = os.fspath(path)
        self._stream: BinaryIO | None = open(self.path, "rb")
        try:
            self.count, self.version = read_header(self._stream)
            expected = HEADER.size + self.count * RECORD.size
            actual = os.fstat(self._stream.fileno()).st_size
            if actual != expected:
                raise TraceFormatError(
                    f"file size {actual} != {expected} implied by "
                    f"record count {self.count}"
                )
        except BaseException:
            self._stream.close()
            self._stream = None
            raise

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "TraceFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return self.count

    def _require_stream(self) -> BinaryIO:
        if self._stream is None:
            raise ValueError(f"trace file {self.path} is closed")
        return self._stream

    def record(self, index: int) -> TraceRecord:
        """Decode the single record at ``index``."""
        if not 0 <= index < self.count:
            raise IndexError(f"record {index} out of range [0, {self.count})")
        stream = self._require_stream()
        stream.seek(HEADER.size + index * RECORD.size)
        raw = stream.read(RECORD.size)
        if len(raw) != RECORD.size:
            raise TraceFormatError(f"truncated at record {index}/{self.count}")
        return _decode(raw, self.version)

    def iter_from(self, start: int = 0,
                  stop: int | None = None) -> Iterator[TraceRecord]:
        """Stream records in ``[start, stop)`` without loading the rest.

        Reads in fixed-size chunks so a multi-million-record fast-forward
        costs a handful of large sequential reads, not one syscall per
        record.
        """
        stop = self.count if stop is None else min(stop, self.count)
        if start < 0 or start > self.count:
            raise IndexError(f"start {start} out of range [0, {self.count}]")
        if stop <= start:
            return
        stream = self._require_stream()
        stream.seek(HEADER.size + start * RECORD.size)
        remaining = stop - start
        size = RECORD.size
        while remaining:
            batch = min(CHUNK_RECORDS, remaining)
            raw = stream.read(batch * size)
            if len(raw) != batch * size:
                raise TraceFormatError(
                    f"truncated at record {stop - remaining}/{self.count}"
                )
            yield from _decode_records(raw, self.version, {})
            remaining -= batch

    def __iter__(self) -> Iterator[TraceRecord]:
        return self.iter_from(0, self.count)


def open_trace(path) -> TraceFile:
    """Open the trace at ``path`` for streaming / random access."""
    return TraceFile(path)


class TraceStreamDecoder:
    """Incremental decoder for a byte stream of packed trace records.

    The network-facing sibling of :func:`iter_trace`: bytes arrive in
    arbitrary fragments (socket reads, HTTP chunks) and complete records
    are yielded as they become decodable, with any partial tail buffered
    until the next :meth:`feed`.  The stream is *headerless* — a live
    session has no up-front record count — and decoded with the current
    format version unless another supported one is requested.

    Used by the ``repro.service`` ingest path; also handy for piped
    "live" trace frontends (ROADMAP item 3).
    """

    def __init__(self, version: int = VERSION) -> None:
        if version not in SUPPORTED_VERSIONS:
            raise TraceFormatError(f"unsupported trace version {version}")
        self.version = version
        self._buffer = bytearray()
        #: Complete records decoded so far.
        self.decoded = 0

    def feed(self, data: bytes) -> list[TraceRecord]:
        """Decode every complete record in ``buffered + data``.

        Returns the (possibly empty) list of newly complete records; a
        trailing partial record stays buffered for the next call.
        """
        self._buffer.extend(data)
        size = RECORD.size
        usable = len(self._buffer) - (len(self._buffer) % size)
        if not usable:
            return []
        view = bytes(self._buffer[:usable])
        del self._buffer[:usable]
        records = _decode_records(view, self.version, {})
        self.decoded += len(records)
        return records

    @property
    def pending(self) -> int:
        """Bytes of an incomplete trailing record currently buffered."""
        return len(self._buffer)

    def finish(self) -> None:
        """Assert the stream ended on a record boundary.

        Raises :class:`TraceFormatError` when a partial record is still
        buffered — the sender stopped mid-record.
        """
        if self._buffer:
            raise TraceFormatError(
                f"stream ended mid-record: {len(self._buffer)} trailing "
                f"byte(s) after {self.decoded} complete record(s)"
            )
