"""A clock that counts host work instead of wall time.

On a shared 2-vCPU host the speed of pure-Python code swings by ±20% over
periods of a few seconds, independently on each vCPU, so a 25-second wall
time varies by more than a code change worth measuring.  ``HostClock``
samples that speed all through a run: a background thread wakes every
``PERIOD`` seconds and times a fixed pure-Python kernel.  A window of
wall time then converts to *reference seconds*: its length times the mean
sampled speed in it, divided by ``REFERENCE_SPEED``.  Code that gets slower
takes more reference seconds; a host that gets slower does not.

The kernel batch is timed with the sampling thread's own CPU clock, so the
time it spends waiting for the interpreter lock while the measured code
runs is not counted as slowness.  The process is pinned to one vCPU so
that the sampler and the measured code share it.
"""

from __future__ import annotations

import bisect
import json
import os
import threading
import time

#: Kernel iterations per reference second (about the median speed of the
#: host the bounds were tuned on, so reference and wall seconds are close).
REFERENCE_SPEED = 4.0e6
#: Seconds between two samples.
PERIOD = 0.02
#: Kernel iterations per sample.
BATCH = 400


def kernel(iterations: int) -> int:
    """The fixed pure-Python reference kernel."""
    acc = 0
    table = {}
    for index in range(iterations):
        acc = (acc * 31 + index) & 0xFFFFFFFF
        table[index & 1023] = acc
    return acc


def pin(cpu: int) -> bool:
    """Pin this process (and threads and children started later) to ``cpu``.

    Returns False where the host refuses; the clock then samples whichever
    vCPU its thread runs on, which tracks the ops less closely.
    """
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return False
    return True


class HostClock:
    """Background samples of host speed, and wall windows in reference seconds."""

    def __init__(self) -> None:
        #: (wall time, kernel iterations per CPU second), in time order.
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True,
                                        name="hostclock")

    def start(self) -> "HostClock":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        cpu = time.thread_time
        wall = time.perf_counter
        while not self._stop.wait(PERIOD):
            started = cpu()
            kernel(BATCH)
            elapsed = cpu() - started
            if elapsed > 0:
                self.samples.append((wall(), BATCH / elapsed))

    def mean_speed(self, start: float | None = None,
                   end: float | None = None) -> float:
        """Mean sampled speed in ``[start, end]``, or over every sample.

        A window too short to hold a sample uses the nearest one.
        """
        samples = list(self.samples)
        if not samples:
            raise RuntimeError("host clock has no samples yet")
        times = [moment for moment, _ in samples]
        speeds = [speed for _, speed in samples]
        if start is None:
            return sum(speeds) / len(speeds)
        low = bisect.bisect_left(times, start)
        high = bisect.bisect_right(times, end)
        if high > low:
            window = speeds[low:high]
            return sum(window) / len(window)
        middle = (start + end) / 2
        nearest = min(range(max(0, low - 1), min(len(times), low + 1)),
                      key=lambda index: abs(times[index] - middle))
        return speeds[nearest]

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the wall window ``[start, end]``."""
        return (end - start) * self.mean_speed(start, end) / REFERENCE_SPEED

    def dump(self, path) -> None:
        with open(path, "w") as out:
            json.dump(list(self.samples), out)

    @classmethod
    def load(cls, path) -> "HostClock":
        """A stopped clock holding the samples another process dumped."""
        clock = cls()
        with open(path) as source:
            clock.samples = [tuple(sample) for sample in json.load(source)]
        return clock
