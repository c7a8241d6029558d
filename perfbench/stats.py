"""Aggregation, percentile and output-check helpers of the benchmark.

Pure functions and small value classes with no dependency on ``repro``, so
``test_perfbench.py`` can pin them without running a workload.
"""

from __future__ import annotations

import hashlib
import json
import math

#: Samples a tail percentile must leave beyond it to be reported.
TAIL_SAMPLES = 10


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``pct``."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def tail(samples: list[float], pct: float = 95.0) -> tuple[str, float]:
    """The ``pct`` percentile when at least ``TAIL_SAMPLES`` lie beyond it.

    With fewer samples no percentile that high is measurable, so the
    slowest sample is returned instead.  The label says which one it is.
    """
    if samples_beyond(len(samples), pct) >= TAIL_SAMPLES:
        return f"p{pct:g}", percentile(samples, pct)
    return "max", max(samples)


def rate(windows, seconds) -> float:
    """Work ÷ time summed over every ``(work, start, end)`` window of a run.

    Never the rate of one op: a drift spike lands on one window and is
    averaged by the rest.  ``seconds(start, end)`` prices a wall window
    (wall or reference seconds).
    """
    work = sum(window[0] for window in windows)
    spent = sum(seconds(start, end) for _, start, end in windows)
    return work / spent if spent > 0 else 0.0


def wall_seconds(start: float, end: float) -> float:
    return end - start


def digest(payload) -> str:
    """Stable short hash of a JSON-able payload (floats by their repr)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Ledger:
    """Ops attempted and failed, with the reason for each failure.

    ``expect`` compares an op's output digest with the pinned digest when
    one is given, and otherwise with the first digest this ledger saw
    (parity within the run).
    """

    def __init__(self, pinned: str | None = None) -> None:
        self.expected = pinned
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    def expect(self, observed: str, what: str = "output") -> bool:
        """Check one digest; records a failure and returns False on mismatch."""
        if self.expected is None:
            self.expected = observed
            return True
        if observed != self.expected:
            self.fail(f"{what} digest {observed} != expected {self.expected}")
            return False
        return True


def metric(value: float, unit: str) -> dict:
    """One entry of the result's ``metrics`` object."""
    return {"value": value, "unit": unit}


def result_line(ledger: Ledger, metrics: dict, extra_ok: bool = True) -> str:
    """The final JSON line the benchmark prints."""
    return json.dumps({
        "correct": extra_ok and ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    })
