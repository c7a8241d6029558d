"""On-disk checkpoints of simulator architectural state.

A checkpoint is the gzip-compressed JSON of
:meth:`repro.engine.simulator.Simulator.state_dict` — pure data, no pickled
live objects — so a warmed state is created once and reused across runs,
experiments and processes.  The :class:`CheckpointStore` keys checkpoints by
(model fingerprint, trace identity, sampling plan, interval index): the full
provenance a snapshot is valid for, hashed into a filename.

Writes are atomic (scratch file + ``os.replace``) so concurrent experiment
workers can share a store the same way they share the result cache.

The payload is deflated at :data:`COMPRESS_LEVEL` 4, not gzip's default
9.  Means over the 14 states of a sampled TPF pass (scale 0.3, config 2;
328 kB of compact JSON each), CPU time per state on one core of a shared
2-vCPU host:

=====  ========  =======
level  deflated  deflate
=====  ========  =======
1      80.6 kB    3.6 ms
4      71.0 kB    5.7 ms
6      65.7 kB   13.1 ms
9      64.4 kB   37.6 ms
=====  ========  =======

Level 4 costs a seventh of level 9's time for files 10% larger, and they
stay within 3% of the 69.2 kB that the keyed-object entries of schema v1
took at level 9.  A sampled first pass writes every state its rerun
reads, so encode time weighs as much as size here.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import time
import zlib
from pathlib import Path

from repro.telemetry.metrics import REGISTRY

#: Everything a torn, truncated, or concurrently rewritten checkpoint file
#: can raise on read: filesystem errors, non-JSON / non-gzip content
#: (``ValueError`` covers ``json.JSONDecodeError`` and gzip's bad-magic
#: check), a gzip stream cut mid-member (``EOFError``), and a corrupted
#: deflate payload (``zlib.error``).  The last two escaped the original
#: tolerant-read net: a crash mid-write outside the atomic-rename protocol
#: (or a copied-in partial file) produced a checkpoint that *raised*
#: instead of degrading to a recompute.
_UNREADABLE = (OSError, ValueError, EOFError, zlib.error)

#: Deflate level of every checkpoint (see the module docstring).
COMPRESS_LEVEL = 4


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


def save_state(path, state: dict) -> None:
    """Atomically write ``state`` as gzip-JSON to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_suffix(f".tmp{os.getpid()}")
    # mtime=0 and an empty embedded name keep the gzip output byte-stable
    # for identical states, whatever the file is called.
    with open(scratch, "wb") as raw:
        with gzip.GzipFile(filename="", mode="wb", fileobj=raw,
                           compresslevel=COMPRESS_LEVEL,
                           mtime=0) as stream:
            stream.write(json.dumps(state, separators=(",", ":")).encode())
    os.replace(scratch, path)


def load_state(path) -> dict:
    """Read a checkpoint written by :func:`save_state`.

    Raises ``ValueError`` when the payload decodes but is not a JSON
    object — a state dict is always an object, anything else is garbage
    that happens to gunzip.
    """
    with gzip.open(path, "rb") as stream:
        state = json.loads(stream.read().decode())
    if not isinstance(state, dict):
        raise ValueError(f"checkpoint {path} holds {type(state).__name__}, "
                         f"not a state dict")
    return state


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
        #: and every state a model refused (:meth:`refuse`).
        self.skipped: list[tuple[Path, str]] = []

    def path_for(self, model: str, trace_key: str, plan_key: tuple,
                 index: int) -> Path:
        """Checkpoint file for one (model, trace, plan, interval) identity."""
        digest = hashlib.sha256(
            repr((model, trace_key, plan_key, index)).encode()
        ).hexdigest()[:20]
        return self.directory / f"ckpt-{digest}.json.gz"

    def has(self, model: str, trace_key: str, plan_key: tuple,
            index: int) -> bool:
        """True when a checkpoint exists for this identity."""
        return self.path_for(model, trace_key, plan_key, index).exists()

    def load(self, model: str, trace_key: str, plan_key: tuple,
             index: int) -> dict | None:
        """The stored state, or ``None`` when absent or unreadable.

        Tolerant reads, like the result cache: a corrupt or half-written
        file (only possible outside the atomic-rename protocol) degrades to
        a recompute, never an error.
        """
        path = self.path_for(model, trace_key, plan_key, index)
        try:
            state = load_state(path)
        except FileNotFoundError:
            _count("miss")
            return None  # plain miss, not worth a skip report
        except _UNREADABLE as problem:
            self.skipped.append((path, f"{type(problem).__name__}: {problem}"))
            _count("skipped")
            return None
        _count("hit")
        return state

    def refuse(self, model: str, trace_key: str, plan_key: tuple,
               index: int, problem: Exception) -> None:
        """Record a read state the model refused (stale schema, foreign
        fingerprint) in :attr:`skipped`; the caller recomputes it."""
        self.skipped.append(
            (self.path_for(model, trace_key, plan_key, index),
             f"{type(problem).__name__}: {problem}"))

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

    def prune(self, max_entries: int | None = None,
              max_age: float | None = None, *,
              now: float | None = None) -> int:
        """Bound the store: drop old checkpoints; return the count removed.

        Long-lived stores (the simulation service's suspend/resume spool,
        a shared sweep cache) grow without bound otherwise.  Two
        independent limits, either or both:

        * ``max_age`` — remove entries whose mtime is older than this many
          seconds (against ``now``, default wall clock);
        * ``max_entries`` — after the age pass, remove oldest-first until
          at most this many remain.

        Tolerant of concurrent writers and deleters exactly like
        :meth:`clear`: a vanished file is not an error and not counted,
        and an unstatable file is treated as oldest (it gets pruned
        first rather than wedging the pass).
        """
        if max_entries is None and max_age is None:
            return 0
        if max_entries is not None and max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        if max_age is not None and max_age < 0:
            raise ValueError(f"max_age must be >= 0, got {max_age}")
        now = time.time() if now is None else now
        aged: list[tuple[float, Path]] = []
        for path in self.entries():
            try:
                mtime = path.stat().st_mtime
            except OSError:
                mtime = float("-inf")
            aged.append((mtime, path))
        aged.sort()
        doomed: list[Path] = []
        if max_age is not None:
            cutoff = now - max_age
            doomed.extend(path for mtime, path in aged if mtime < cutoff)
            aged = [(mtime, path) for mtime, path in aged if mtime >= cutoff]
        if max_entries is not None and len(aged) > max_entries:
            excess = len(aged) - max_entries
            doomed.extend(path for _, path in aged[:excess])
        removed = 0
        for path in doomed:
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
