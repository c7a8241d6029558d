"""Host-side wall-time phase timers.

The simulated-cycle tracer answers "where did the *model's* time go"; the
phase timer answers the same question for the *host*: how long each phase
of a report run (tables, each figure, rendering) actually took.  It is
dependency-free so anything may use it; the experiment pool's
:class:`~repro.experiments.pool.ExecutionLog` carries the accumulated
phases into the session summary (``record_phase``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator


@contextmanager
def phase_timer(name: str,
                record: Callable[[str, float], None]) -> Iterator[None]:
    """Time one block and report it straight to ``record(name, seconds)``.

    ``record`` is the caller's accumulator (e.g.
    ``session_log.record_phase``); it runs even when the block raises.
    """
    started = time.perf_counter()
    try:
        yield
    finally:
        record(name, time.perf_counter() - started)
