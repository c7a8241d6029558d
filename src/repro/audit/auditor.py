"""The :class:`Auditor`: event tracing plus invariant checks at hook points.

The auditor is the single object the audited components talk to.  It keeps
a bounded ring of recent events (the trail attached to every violation),
per-check run counters, and the clock watermarks for the monotonicity
checks.  Cheap local checks run at every hook; the full structural scan
(:func:`repro.audit.invariants.check_simulator`) runs every ``interval``
simulated instructions and once more at ``finish``.

Failure handling: by default the first violation raises
:class:`AuditViolation` (what the fuzz harness wants — the failing trace
can then be shrunk); with ``collect=True`` violations accumulate in
:attr:`Auditor.violations` and simulation continues.
"""

from __future__ import annotations

import os
from collections import Counter, deque
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.audit import invariants

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.btb.entry import BTBEntry
    from repro.btb.storage import BranchTargetBuffer
    from repro.core.events import Prediction
    from repro.core.hierarchy import FirstLevelPredictor
    from repro.core.search import LookaheadSearch
    from repro.engine.simulator import Simulator
    from repro.preload.engine import PreloadEngine
    from repro.trace.record import TraceRecord

#: Environment variable enabling auditing in every ``run_workload`` call
#: (``1``/``true``/``on``); set by the CLI's ``--audit`` flag so audit mode
#: survives into pool worker processes without threading a flag through
#: every figure runner.
AUDIT_ENV = "REPRO_AUDIT"


def audit_from_env() -> bool:
    """True when ``REPRO_AUDIT`` asks for audited simulation runs."""
    return os.environ.get(AUDIT_ENV, "").strip().lower() in ("1", "true", "on")


@contextmanager
def restored_environ() -> Iterator[None]:
    """Undo, on exit, every ``os.environ`` change made inside the block.

    Commands export switches such as ``$REPRO_AUDIT`` so that pool workers
    inherit them while the command runs; in a long-lived process (a test
    session, a notebook) they must not outlive the command, whether it
    returns or raises.
    """
    saved = dict(os.environ)
    try:
        yield
    finally:
        for name in set(os.environ) - set(saved):
            del os.environ[name]
        os.environ.update(saved)


class AuditViolation(AssertionError):
    """An invariant breach, with the check name and recent event trail."""

    def __init__(self, check: str, problems: list[str],
                 events: tuple[tuple, ...] = ()) -> None:
        self.check = check
        self.problems = list(problems)
        self.events = events
        super().__init__(self._render())

    def _render(self) -> str:
        lines = [f"audit check '{self.check}' failed:"]
        lines += [f"  - {problem}" for problem in self.problems]
        if self.events:
            lines.append(f"  last {len(self.events)} events:")
            lines += [
                "    " + " ".join(str(part) for part in event)
                for event in self.events
            ]
        return "\n".join(lines)


class Auditor:
    """Pluggable runtime invariant checker and event tracer.

    One auditor audits one simulator: :meth:`attach` (called by
    ``Simulator.__init__``) plants ``self`` on the simulator's search
    pipeline, BTB structures, and preload engine, whose hook sites are
    no-ops while their ``audit`` attribute is ``None``.
    """

    def __init__(self, interval: int = 2048, trace_depth: int = 64,
                 collect: bool = False) -> None:
        if interval < 1:
            raise ValueError("interval must be at least 1")
        self.interval = interval
        self.collect = collect
        #: Recent event tuples, newest last (the violation trail).
        self.events: deque[tuple] = deque(maxlen=trace_depth)
        #: Violations accumulated in ``collect`` mode.
        self.violations: list[AuditViolation] = []
        #: check name -> number of times it ran (observability).
        self.checks_run: Counter[str] = Counter()
        self._steps = 0
        self._decode_watermark = 0.0
        self._search_watermark: int | None = None
        self._transfer_watermark = 0

    # -- wiring ------------------------------------------------------------

    def attach(self, simulator: "Simulator") -> None:
        """Wire this auditor into ``simulator`` and its components."""
        simulator.search.audit = self
        simulator.hierarchy.btb1.audit = self
        if simulator.hierarchy.btbp is not None:
            simulator.hierarchy.btbp.audit = self
        if simulator.btb2 is not None:
            simulator.btb2.audit = self
        if simulator.preload is not None:
            simulator.preload.audit = self

    # -- failure plumbing --------------------------------------------------

    def _report(self, check: str, problems: list[str]) -> None:
        self.checks_run[check] += 1
        if not problems:
            return
        violation = AuditViolation(check, problems, tuple(self.events))
        if self.collect:
            self.violations.append(violation)
        else:
            raise violation

    # -- hooks: simulator --------------------------------------------------

    def after_step(self, simulator: "Simulator", record: "TraceRecord") -> None:
        """Per-instruction checks: clock monotonicity + periodic full scan."""
        self._steps += 1
        self.events.append(("step", self._steps, hex(record.address)))
        problems = []
        if simulator._cycle < self._decode_watermark:
            problems.append(
                f"decode clock moved backward: {simulator._cycle} < "
                f"{self._decode_watermark}"
            )
        self._decode_watermark = simulator._cycle
        search_cycle = simulator.search.cycle
        if self._search_watermark is not None and \
                search_cycle < self._search_watermark:
            problems.append(
                f"search clock moved backward without a restart: "
                f"{search_cycle} < {self._search_watermark}"
            )
        self._search_watermark = search_cycle
        if simulator.preload is not None:
            transfer_clock = simulator.preload.transfer.clock
            if transfer_clock < self._transfer_watermark:
                problems.append(
                    f"transfer clock moved backward: {transfer_clock} < "
                    f"{self._transfer_watermark}"
                )
            self._transfer_watermark = transfer_clock
        self._report("clock_monotonicity", problems)
        if self._steps % self.interval == 0:
            self._report("structural_scan",
                         invariants.check_simulator(simulator))

    def after_finish(self, simulator: "Simulator") -> None:
        """End-of-run checks: final structural scan + counter conservation."""
        self.events.append(("finish", self._steps))
        self._report("structural_scan", invariants.check_simulator(simulator))
        self._report("counter_conservation",
                     invariants.check_counter_conservation(simulator))

    def on_prediction_used(self, hierarchy: "FirstLevelPredictor",
                           prediction: "Prediction") -> None:
        """A dynamic prediction is being applied at decode."""
        self.events.append(
            ("predict", hex(prediction.branch_address),
             prediction.level.value, prediction.ready_cycle)
        )
        self._report(
            "prediction_residency",
            invariants.check_prediction_residency(hierarchy, prediction),
        )

    # -- hooks: search pipeline --------------------------------------------

    def on_search_restart(self, search: "LookaheadSearch", address: int,
                          cycle: int) -> None:
        """Pipeline restart: the one event allowed to rewind the search clock."""
        self.events.append(("search_restart", hex(address), cycle))
        self._search_watermark = cycle

    # -- hooks: BTB storage ------------------------------------------------

    def on_btb_write(self, btb: "BranchTargetBuffer", operation: str,
                     ways: list["BTBEntry"]) -> None:
        """Row-local structural check after any mutating BTB operation."""
        self.events.append(
            ("btb", btb.name, operation,
             hex(ways[0].address) if ways else "-")
        )
        self._report("btb_row", invariants.check_btb_row(btb, ways))

    # -- hooks: preload engine ---------------------------------------------

    def on_tracker_event(self, engine: "PreloadEngine", what: str) -> None:
        """Tracker-file consistency after any tracker lifecycle event."""
        self.events.append(("tracker", what, engine.trackers.busy()))
        self._report("trackers", invariants.check_trackers(engine))

    # -- introspection -----------------------------------------------------

    def summary(self) -> dict[str, int]:
        """Checks run by name (for reports and tests)."""
        return dict(self.checks_run)
