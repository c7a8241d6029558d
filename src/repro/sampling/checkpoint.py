"""On-disk checkpoints of simulator architectural state.

A checkpoint is :meth:`repro.engine.simulator.Simulator.state_dict` — pure
data, no pickled live objects — so a warmed state is created once and
reused across runs, experiments and processes.  The :class:`CheckpointStore`
keys checkpoints by (model fingerprint, trace identity, sampling plan,
interval index): the full provenance a snapshot is valid for, hashed into a
filename.

Writes are atomic (:func:`repro.atomic.publish`: a writer-unique scratch
file, then a rename) so concurrent experiment workers, pool threads and
service sessions can share a store the same way they share the result
cache.

The container
-------------

A file is one gzip member (:data:`COMPRESS_LEVEL`, ``mtime=0`` and no
embedded name, so equal states give equal bytes) holding a payload:

* the state as compact JSON (:func:`json.dumps` with ``(",", ":")``
  separators), in which every list of at least :data:`SECTION_MIN` exact
  ints (no bools) that fits in 64 bits, signed or unsigned, is replaced
  by a marker ``{"#section": [typecode, count]}``; typecode ``"q"`` is
  signed, ``"Q"`` unsigned;
* when there is at least one marker, one ``\n`` and then the sections:
  each marked list's ``count`` values as 8-byte little-endian integers, in
  the order the markers appear in the JSON.  Compact JSON never holds a
  raw newline, so the first one ends the header.

An object of the state that has a ``"#section"`` key of its own is written
as ``{"#section": null, "items": [[key, value], ...]}``, so every JSON
data tree comes back exactly.  Decoding checks every marker and count and
that the sections cover the rest of the payload exactly; a malformed
payload raises ``ValueError``.  Every file of state schemas v1 and v2 is
compact JSON with no marker, so an old store still decodes and the model
refuses it by its version (:meth:`CheckpointStore.restore`).

The sections are most of a state: the BTB levels, PHT, CTB and surprise
BHT write their integer columns as lists
(:meth:`~repro.btb.storage.BranchTargetBuffer.state_dict`).  Reading a
section is one copy instead of parsing its digits.

The payload is deflated at :data:`COMPRESS_LEVEL` 4, not gzip's default
9.  Means over the 14 states of a sampled TPF pass (scale 0.3, config 2;
state schema v3, payloads of 445 kB each, 98% of their ints in sections),
CPU time per state on one core of a shared 2-vCPU host:

=====  ========  =======
level  deflated  deflate
=====  ========  =======
1      62.1 kB    2.4 ms
4      56.3 kB    3.6 ms
6      53.7 kB   11.0 ms
9      52.7 kB  120 ms
=====  ========  =======

Level 4 costs a thirtieth of level 9's time for files 7% larger, and 1.2
ms more than level 1 for files 9% smaller (level 9 took 37.6 ms on the
all-JSON payloads of schema v2).  A sampled first pass writes every state
its rerun reads, so encode time weighs as much as size here.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import sys
import zlib
from array import array
from pathlib import Path

from repro.atomic import publish
from repro.telemetry.metrics import REGISTRY

#: Everything a torn, truncated, or concurrently rewritten checkpoint file
#: can raise on read: filesystem errors, malformed payloads or gzip
#: headers (``ValueError``, which covers ``json.JSONDecodeError`` and
#: every refusal of :func:`decode_state`), a gzip stream cut mid-member
#: (``EOFError``), and a corrupted deflate payload (``zlib.error``).  The
#: last two escaped the original tolerant-read net: a crash mid-write
#: outside the atomic-rename protocol (or a copied-in partial file)
#: produced a checkpoint that *raised* instead of degrading to a recompute.
_UNREADABLE = (OSError, ValueError, EOFError, zlib.error)

#: Deflate level of every checkpoint (see the module docstring).
COMPRESS_LEVEL = 4

#: Shortest integer list written as a raw section rather than as JSON.
SECTION_MIN = 64

#: Key of a section marker (and of an escaped object) in the JSON header.
SECTION_KEY = "#section"

#: Section typecodes, tried in this order: signed, then unsigned 64-bit.
TYPECODES = ("q", "Q")

#: Bytes per section value.
_ITEM_BYTES = 8

#: Sections are little-endian on disk; a big-endian host swaps them.
_SWAP = sys.byteorder == "big"

_INT = {int}
_CONTAINERS = frozenset((dict, list, tuple))


def _count(result: str) -> None:
    """Tick the process-local checkpoint-traffic counter.

    Instruments the module-global :data:`~repro.telemetry.metrics.REGISTRY`
    so orchestrator-side store traffic shows up in metrics snapshots;
    worker processes fold their own store traffic into per-slice relay
    snapshots instead (a fork-inherited global registry must never be
    exported twice).
    """
    REGISTRY.counter(
        "repro_checkpoint_store_total",
        "checkpoint store operations by result",
        ("result",),
    ).inc(result=result)


def _section(values: list) -> array | None:
    """``values`` as a little-endian section, or ``None`` if too wide."""
    for typecode in TYPECODES:
        try:
            section = array(typecode, values)
        except OverflowError:
            continue
        if _SWAP:
            section.byteswap()
        return section
    return None


def _pack(node, sections: list):
    """``node`` with its long integer lists replaced by section markers.

    Appends each replaced list's section to ``sections`` in the order
    :func:`json.dumps` writes the markers.  Copies only the containers on
    the way to a replaced list; everything else is returned as it is.
    """
    if type(node) is dict:
        if SECTION_KEY in node:
            return {SECTION_KEY: None, "items": [
                [key, _pack(value, sections)
                 if type(value) in _CONTAINERS else value]
                for key, value in node.items()]}
        packed = node
        for key, value in node.items():
            if type(value) in _CONTAINERS:
                replaced = _pack(value, sections)
                if replaced is not value:
                    if packed is node:
                        packed = dict(node)
                    packed[key] = replaced
        return packed
    types = set(map(type, node))
    if types == _INT:
        if len(node) >= SECTION_MIN:
            section = _section(node)
            if section is not None:
                sections.append(section)
                return {SECTION_KEY: [section.typecode, len(node)]}
        return node
    if types.isdisjoint(_CONTAINERS):
        return node
    packed = node
    for position, item in enumerate(node):
        if type(item) in _CONTAINERS:
            replaced = _pack(item, sections)
            if replaced is not item:
                if packed is node:
                    packed = list(node)
                packed[position] = replaced
    return packed


def encode_state(state: dict) -> bytes:
    """The checkpoint payload of ``state`` (the module docstring's layout)."""
    sections: list[array] = []
    header = json.dumps(_pack(state, sections), separators=(",", ":")).encode()
    if not sections:
        return header
    return b"".join([header, b"\n", *sections])


class _Sections:
    """Hands out the sections of one payload to its markers, in order."""

    def __init__(self, body: bytes) -> None:
        self.body = memoryview(body)
        self.offset = 0

    def resolve(self, obj: dict):
        """``json.loads`` object hook: markers and escaped objects."""
        if SECTION_KEY not in obj:
            return obj
        marker = obj[SECTION_KEY]
        if marker is None and len(obj) == 2 and "items" in obj:
            items = obj["items"]
            if type(items) is not list or any(
                    type(item) is not list or len(item) != 2
                    or type(item[0]) is not str for item in items):
                raise ValueError("malformed escaped object")
            return dict(items)
        if len(obj) != 1 or type(marker) is not list or len(marker) != 2:
            raise ValueError(f"malformed section marker {obj!r}")
        typecode, count = marker
        if typecode not in TYPECODES:
            raise ValueError(f"unknown section typecode {typecode!r}")
        if type(count) is not int or count < 0:
            raise ValueError(f"section count {count!r} is not a count")
        end = self.offset + count * _ITEM_BYTES
        if end > len(self.body):
            raise ValueError(
                f"section of {count} values runs past the payload's end")
        section = array(typecode)
        section.frombytes(self.body[self.offset:end])
        if _SWAP:
            section.byteswap()
        self.offset = end
        return section.tolist()


def decode_state(payload: bytes) -> dict:
    """The state that :func:`encode_state` turned into ``payload``.

    Raises ``ValueError`` for a malformed payload: bad JSON, a malformed
    marker or escaped object, a section that is short or missing, bytes
    left over after the last section, or a payload that is not a JSON
    object — a state dict is always an object.
    """
    header, _, body = payload.partition(b"\n")
    sections = _Sections(body)
    state = json.loads(header.decode(), object_hook=sections.resolve)
    if sections.offset != len(body):
        raise ValueError(
            f"{len(body) - sections.offset} byte(s) follow the last section")
    if not isinstance(state, dict):
        raise ValueError(f"checkpoint payload holds {type(state).__name__}, "
                         f"not a state dict")
    return state


def save_state(path, state: dict) -> None:
    """Atomically write ``state`` to ``path`` as a gzip checkpoint."""
    payload = encode_state(state)
    # mtime=0 and an empty embedded name keep the gzip output byte-stable
    # for identical states, whatever the file is called.
    with publish(path) as scratch, open(scratch, "wb") as raw:
        with gzip.GzipFile(filename="", mode="wb", fileobj=raw,
                           compresslevel=COMPRESS_LEVEL,
                           mtime=0) as stream:
            stream.write(payload)


def load_state(path) -> dict:
    """Read a checkpoint written by :func:`save_state`.

    Raises ``ValueError`` for a payload that gunzips but is malformed
    (:func:`decode_state`).
    """
    with gzip.open(path, "rb") as stream:
        return decode_state(stream.read())


class CheckpointStore:
    """A directory of provenance-keyed simulator checkpoints.

    Safe under concurrent writers and readers, like the result cache:
    writes are atomic, reads are tolerant (corrupt or vanished files are
    skipped and reported via :attr:`skipped`, never raised), and
    :meth:`clear` tolerates losing races to other deleters.
    """

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        #: Skip-and-report ledger: (path, reason) for every unreadable
        #: checkpoint this store instance encountered and degraded around,
        #: and every state a model refused (:meth:`restore`).
        self.skipped: list[tuple[Path, str]] = []

    def path_for(self, model: str, trace_key: str, plan_key: tuple,
                 index: int) -> Path:
        """Checkpoint file for one (model, trace, plan, interval) identity."""
        digest = hashlib.sha256(
            repr((model, trace_key, plan_key, index)).encode()
        ).hexdigest()[:20]
        return self.directory / f"ckpt-{digest}.json.gz"

    def load(self, model: str, trace_key: str, plan_key: tuple,
             index: int) -> dict | None:
        """The stored state, or ``None`` when absent or unreadable.

        Tolerant reads, like the result cache: a corrupt or half-written
        file (only possible outside the atomic-rename protocol) degrades to
        a recompute, never an error.  Counts a ``miss`` or a ``skipped``
        read; :meth:`restore` counts the rest.
        """
        path = self.path_for(model, trace_key, plan_key, index)
        try:
            return load_state(path)
        except FileNotFoundError:
            _count("miss")
            return None  # plain miss, not worth a skip report
        except _UNREADABLE as problem:
            self.skipped.append((path, f"{type(problem).__name__}: {problem}"))
            _count("skipped")
            return None

    def restore(self, sim, trace_key: str, plan_key: tuple,
                index: int) -> dict | None:
        """Load the stored state into ``sim``; return it, or ``None``.

        The one read-and-accept step of every checkpoint consumer: the
        sampled runner, the exact-parallel producer and the service's
        resume.  ``sim`` keys the read (its model fingerprint) and must
        accept the state: one it refuses (stale schema, foreign
        fingerprint, table columns that disagree) is counted ``refused``
        and noted in :attr:`skipped`, and ``sim`` is left as it was.  Only
        an accepted state counts as a ``hit``.
        """
        model = sim.model_fingerprint()
        state = self.load(model, trace_key, plan_key, index)
        if state is None:
            return None
        try:
            sim.load_state_dict(state)
        except ValueError as problem:
            self.skipped.append(
                (self.path_for(model, trace_key, plan_key, index),
                 f"{type(problem).__name__}: {problem}"))
            _count("refused")
            return None
        _count("hit")
        return state

    def save(self, model: str, trace_key: str, plan_key: tuple,
             index: int, state: dict) -> Path:
        """Store ``state`` under this identity; returns the path."""
        path = self.path_for(model, trace_key, plan_key, index)
        save_state(path, state)
        _count("save")
        return path

    def entries(self) -> list[Path]:
        """Every checkpoint file in the store, sorted by name.

        Tolerates the directory vanishing mid-scan (a concurrent
        ``clear``/``rmtree``): a listing race degrades to the empty list.
        """
        try:
            return sorted(self.directory.glob("ckpt-*.json.gz"))
        except OSError:
            return []

    def prune(self, max_entries: int | None = None) -> int:
        """Keep the ``max_entries`` newest checkpoints; return the count removed.

        Long-lived stores (the simulation service's suspend/resume spool,
        a shared sweep cache) grow without bound otherwise.  ``None`` keeps
        everything.  Tolerant of concurrent writers and deleters exactly
        like :meth:`clear`: a vanished file is not an error and not
        counted, and an unstatable file is treated as oldest (it gets
        pruned first rather than wedging the pass).
        """
        if max_entries is None:
            return 0
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        aged: list[tuple[float, Path]] = []
        for path in self.entries():
            try:
                mtime = path.stat().st_mtime
            except OSError:
                mtime = float("-inf")
            aged.append((mtime, path))
        aged.sort()
        removed = 0
        for _, path in aged[:max(0, len(aged) - max_entries)]:
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            removed += 1
        if removed:
            _count("pruned")
        return removed

    def clear(self) -> int:
        """Delete every checkpoint in the store; returns the count removed.

        Counts only files this call actually removed: losing an unlink
        race to a concurrent deleter is not an error and not a removal.
        """
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
            except FileNotFoundError:
                continue  # another process beat us to it
            removed += 1
        return removed
