"""Atomic publication of files that concurrent writers share.

Trace-cache files, result-cache entries, checkpoints and relay metrics are
all written the same way: into a scratch file in the target's directory,
then renamed over the target with :func:`os.replace`, so a reader sees the
old file or the new one and never a torn write.

The scratch name is unique to one writer, not only to one process: pool
workers on the thread backend and the service's session threads can
publish one path from one process at once.  A name keyed by the process
id alone is shared by such threads: one thread's rename moves the other's
file, and the other's rename then fails with ``FileNotFoundError``.

Scratch names start with a dot and end in ``.tmp``, so no reader's glob
(``ckpt-*.json.gz``, ``*.ztrc``, ``shard-*.jsonl``, ``metrics-*.json``,
``*.json``) ever lists one.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

#: Per-process serial of scratch files; ``next`` on it is atomic under the
#: interpreter lock, so two threads never draw the same number.
_SERIAL = itertools.count()


@contextmanager
def publish(path) -> Iterator[Path]:
    """Yield a scratch path to write; then rename it into place as ``path``.

    Creates the target's directory.  When the body raises, the scratch
    file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_name(
        f".{path.name}.{os.getpid()}-{next(_SERIAL)}.tmp")
    try:
        yield scratch
        os.replace(scratch, path)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise
