"""The bulk trace decoder against the per-record reference ``_decode``.

Every reader (``load_trace``/``iter_trace``, ``TraceFile.iter_from``,
``TraceStreamDecoder.feed``) decodes through one memoising helper, which
builds each memo-missed record from its unpacked fields.  These tests pin
it to ``[_decode(raw, version) for raw in ...]`` over arbitrary rows,
malformed ones included, in both format versions, pin the format errors
it raises, and pin the scope of its memo.
"""

import dataclasses
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa.opcodes import BranchKind
from repro.trace.reader import (
    CHUNK_RECORDS,
    TraceFormatError,
    TraceStreamDecoder,
    _decode,
    _decode_records,
    iter_trace,
    load_trace,
    open_trace,
)
from repro.trace.record import TraceRecord
from repro.trace.writer import (
    HEADER,
    KIND_CODES,
    MAGIC,
    RECORD,
    TAKEN_BIT,
    TARGET_VALID_BIT,
)

ADDRESSES = st.sampled_from([0, 0x100, 0x104, 0x2000, 2**48])


@st.composite
def packed_records(draw):
    """One raw ``(meta, address, target)`` row: any 3-bit length and kind
    code, taken or not, with or without a target.

    Lengths other than 2, 4 and 6, kind codes 6 and 7 (no kind: they decode
    to ``None``) and a taken bit on a non-branch are malformed, and
    ``TraceRecord.validate`` refuses them, but the service decodes before it
    validates, so they reach the decoder all the same.  Rows may carry a
    target whether taken or not (target 0 included), and the target-valid
    bit is drawn independently, so the v1 heuristic and the v2 bit both see
    every combination.  A small address pool makes equal rows, and so memo
    hits, common.
    """
    meta = draw(st.integers(0, 7)) | (draw(st.integers(0, 7)) << 3)
    if draw(st.booleans()):
        meta |= TAKEN_BIT
    if draw(st.booleans()):
        meta |= TARGET_VALID_BIT
    target = draw(st.sampled_from([0, 0x100, 0x2000]))
    return meta, draw(ADDRESSES), target


def _stream_bytes(rows, version):
    if version == 1:
        # v1 has no target-valid bit.
        rows = [(meta & ~TARGET_VALID_BIT, address, target)
                for meta, address, target in rows]
    body = b"".join(RECORD.pack(*row) for row in rows)
    return HEADER.pack(MAGIC, version, len(rows)) + body, body


def _reference(body, version):
    size = RECORD.size
    return [_decode(body[offset:offset + size], version)
            for offset in range(0, len(body), size)]


def _typed_fields(record):
    """Every field with its type: ``==`` alone would let ``1`` pass as
    ``True``."""
    return [(value, type(value)) for value in dataclasses.astuple(record)]


def _write(tmp_path, data):
    path = tmp_path / "trace.ztrc"
    path.write_bytes(data)
    return path


VERSIONS = st.sampled_from([1, 2])
ROWS = st.lists(packed_records(), max_size=60)


class TestAgainstReference:
    @given(rows=ROWS, version=VERSIONS)
    def test_fast_built_records_are_the_reference_records(self, rows,
                                                          version):
        _, body = _stream_bytes(rows, version)
        records = _decode_records(body, version, {})
        reference = _reference(body, version)
        assert [_typed_fields(r) for r in records] == \
            [_typed_fields(r) for r in reference]
        for record, expected in zip(records, reference):
            assert type(record) is TraceRecord
            assert hash(record) == hash(expected)
            with pytest.raises(dataclasses.FrozenInstanceError):
                record.address = 0
            with pytest.raises(dataclasses.FrozenInstanceError):
                record.taken = not record.taken
        assert [_typed_fields(r) for r in records] == \
            [_typed_fields(r) for r in reference]

    @given(rows=ROWS, version=VERSIONS)
    def test_load_and_iter_trace(self, tmp_path_factory, rows, version):
        data, body = _stream_bytes(rows, version)
        reference = _reference(body, version)
        path = _write(tmp_path_factory.mktemp("t"), data)
        assert load_trace(path) == reference
        assert list(iter_trace(io.BytesIO(data))) == reference

    @given(rows=ROWS, version=VERSIONS, data=st.data())
    def test_iter_from_windows(self, tmp_path_factory, rows, version, data):
        raw, body = _stream_bytes(rows, version)
        reference = _reference(body, version)
        path = _write(tmp_path_factory.mktemp("t"), raw)
        count = len(rows)
        with open_trace(path) as trace:
            for _ in range(3):
                start = data.draw(st.integers(0, count))
                stop = data.draw(st.integers(0, count + 5))
                assert list(trace.iter_from(start, stop)) == \
                    reference[start:stop]

    @given(rows=ROWS, version=VERSIONS, data=st.data())
    def test_stream_decoder_under_fragmentation(self, rows, version, data):
        _, body = _stream_bytes(rows, version)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(body)),
                                         max_size=8)))
        decoder = TraceStreamDecoder(version=version)
        out = []
        for begin, end in zip([0] + cuts, cuts + [len(body)]):
            out.extend(decoder.feed(body[begin:end]))
        assert out == _reference(body, version)
        assert decoder.decoded == len(rows)
        decoder.finish()

    def test_windows_across_read_chunks(self, tmp_path):
        rows = [(4, 0x1000 + 4 * (i % 97), 0)
                for i in range(2 * CHUNK_RECORDS + 5)]
        data, body = _stream_bytes(rows, 2)
        reference = _reference(body, 2)
        path = _write(tmp_path, data)
        assert load_trace(path) == reference
        with open_trace(path) as trace:
            for start, stop in [(0, None), (1, CHUNK_RECORDS + 1),
                                (CHUNK_RECORDS - 1, 2 * CHUNK_RECORDS + 2)]:
                assert list(trace.iter_from(start, stop)) == \
                    reference[start:stop]


class TestFormatErrors:
    """Messages and record indices are those of the per-record reader."""

    COUNT = CHUNK_RECORDS + 50

    def _trace(self):
        rows = [(4, 0x1000 + 4 * i, 0) for i in range(self.COUNT)]
        data, body = _stream_bytes(rows, 2)
        return data, _reference(body, 2)

    @pytest.mark.parametrize("missing_bytes", [
        1, RECORD.size - 1, RECORD.size, 60 * RECORD.size,
        (CHUNK_RECORDS + 7) * RECORD.size,
    ])
    def test_truncation_names_the_first_missing_record(self, tmp_path,
                                                       missing_bytes):
        data, reference = self._trace()
        cut = data[:-missing_bytes]
        complete = (len(cut) - HEADER.size) // RECORD.size
        message = f"truncated at record {complete}/{self.COUNT}"
        seen = []
        with pytest.raises(TraceFormatError) as raised:
            for record in iter_trace(io.BytesIO(cut)):
                seen.append(record)
        assert str(raised.value) == message
        # Every complete record before the tear was still yielded.
        assert seen == reference[:complete]
        with pytest.raises(TraceFormatError) as raised:
            load_trace(_write(tmp_path, cut))
        assert str(raised.value) == message

    def test_trailing_bytes(self, tmp_path):
        data, _ = self._trace()
        message = f"trailing bytes after declared record count {self.COUNT}"
        with pytest.raises(TraceFormatError) as raised:
            list(iter_trace(io.BytesIO(data + b"\x00")))
        assert str(raised.value) == message
        with pytest.raises(TraceFormatError) as raised:
            load_trace(_write(tmp_path, data + b"\x00"))
        assert str(raised.value) == message

    def test_iter_from_names_the_chunk_a_shrunk_file_tore(self, tmp_path):
        data, reference = self._trace()
        path = _write(tmp_path, data)
        with open_trace(path) as trace:
            # The size check passed at open; the file shrinks afterwards.
            with open(path, "r+b") as stream:
                stream.truncate(len(data) - 3 * RECORD.size)
            records = trace.iter_from(10)
            head = [next(records) for _ in range(CHUNK_RECORDS)]
            assert head == reference[10:10 + CHUNK_RECORDS]
            with pytest.raises(TraceFormatError) as raised:
                next(records)
        assert str(raised.value) == \
            f"truncated at record {10 + CHUNK_RECORDS}/{self.COUNT}"


class TestMemoScope:
    """Equal packed records share one object within one call, no further."""

    ROW = (4 | (KIND_CODES[BranchKind.COND] << 3) | TAKEN_BIT
           | TARGET_VALID_BIT, 0x1000, 0x2000)

    def _body(self, count):
        rows = [self.ROW if i % 2 else (4, 0x1004, 0) for i in range(count)]
        return _stream_bytes(rows, 2)

    def test_load_trace_shares_across_the_whole_file(self, tmp_path):
        data, _ = self._body(2 * CHUNK_RECORDS + 2)
        records = load_trace(_write(tmp_path, data))
        assert len({id(record) for record in records}) == 2

    def test_iter_from_shares_within_one_read_chunk(self, tmp_path):
        data, _ = self._body(2 * CHUNK_RECORDS)
        with open_trace(_write(tmp_path, data)) as trace:
            records = list(trace.iter_from(0))
        first, second = records[:CHUNK_RECORDS], records[CHUNK_RECORDS:]
        assert len({id(record) for record in first}) == 2
        assert len({id(record) for record in second}) == 2
        assert records[1] == records[CHUNK_RECORDS + 1]
        assert records[1] is not records[CHUNK_RECORDS + 1]

    def test_feed_shares_within_one_call_only(self):
        _, body = self._body(4)
        decoder = TraceStreamDecoder()
        first = decoder.feed(body)
        assert first[1] is first[3]
        second = decoder.feed(body)
        assert second[1] == first[1]
        assert second[1] is not first[1]

    def test_decoder_keeps_only_its_partial_record(self):
        _, body = self._body(4)
        decoder = TraceStreamDecoder()
        decoder.feed(body + body[:7])
        assert vars(decoder) == {"version": 2, "_buffer": bytearray(body[:7]),
                                 "decoded": 4}
