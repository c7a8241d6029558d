"""Property-fuzz harness: random traces, every config, all audits on.

The harness generates seeded random programs and walks (via
:mod:`repro.workloads`), mutates the resulting traces with random slice
deletions — every subsequence of a valid trace is itself a valid trace,
the simulator treats the splice points as context switches — and runs
them through each shipped :class:`~repro.core.config.PredictorConfig`
variant with a strict :class:`~repro.audit.Auditor` attached.  Any
:class:`~repro.audit.AuditViolation` is shrunk (ddmin-style chunk
removal, which again only ever produces valid traces) to a minimal
failing trace before being reported.

Entry points:

* :func:`fuzz` — the library API (used by ``tests/test_audit_fuzz.py``);
* ``scripts/fuzz_audit.py`` — the CLI wrapper (CI smoke + local soak).

Everything is deterministic in ``seed``: case ``i`` derives its generator
seeds from ``(seed, i)`` and rotates through the config variants, so a
failure report's ``(seed, case, config)`` triple reproduces exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.audit.auditor import Auditor, AuditViolation
from repro.core.config import (
    ExclusivityMode,
    FilterMode,
    PredictorConfig,
    TABLE3_CONFIGS,
)
from repro.engine.params import DEFAULT_TIMING, TimingParams
from repro.engine.simulator import Simulator
from repro.trace.record import TraceRecord
from repro.workloads.generator import WalkProfile, generate_trace
from repro.workloads.program import ProgramShape, build_program


def _small(**overrides) -> PredictorConfig:
    """Deliberately tiny hierarchy: maximal eviction/migration pressure.

    Full-size structures barely evict on short fuzz traces; the state bugs
    this harness hunts (stale references, aliased deadlines, leaked
    objects) live on the replacement and movement paths.
    """
    defaults = dict(
        btb1_rows=16, btb1_ways=2, btbp_rows=8, btbp_ways=2,
        btb2_rows=64, btb2_ways=2, pht_entries=64, ctb_entries=64,
        fit_entries=4, surprise_bht_entries=128,
        ordering_table_sets=16, ordering_table_ways=2,
    )
    defaults.update(overrides)
    return PredictorConfig(**defaults)


#: Every shipped configuration variant: the three Table 3 configs at
#: architected size, plus small-geometry variants covering each
#: ``FilterMode``, each ``ExclusivityMode``, both section-6 extensions,
#: the BTBP-less ablation, and stressed miss/tracker limits.
FUZZ_CONFIGS: dict[str, PredictorConfig] = {
    **{config.name: config for config in TABLE3_CONFIGS},
    "small baseline": _small(name="small baseline"),
    "small no BTB2": _small(btb2_enabled=False, name="small no BTB2"),
    "filter block": _small(filter_mode=FilterMode.BLOCK, name="filter block"),
    "filter off": _small(filter_mode=FilterMode.OFF, name="filter off"),
    "inclusive": _small(
        exclusivity=ExclusivityMode.INCLUSIVE, name="inclusive"
    ),
    "no victim writeback": _small(
        exclusivity=ExclusivityMode.NO_VICTIM_WRITEBACK,
        name="no victim writeback",
    ),
    "decode miss reporting": _small(
        decode_miss_reporting=True, name="decode miss reporting"
    ),
    "multi block transfer": _small(
        multi_block_transfer=True, name="multi block transfer"
    ),
    "no BTBP": _small(btbp_enabled=False, name="no BTBP"),
    "tight limits": _small(
        miss_search_limit=1, tracker_count=1, partial_search_rows=1,
        name="tight limits",
    ),
    "no steering": _small(steering_enabled=False, name="no steering"),
}

#: Audit scan interval for fuzz runs: tight, so structural breaches are
#: caught within a handful of instructions of their cause.
FUZZ_AUDIT_INTERVAL = 16


@dataclass(frozen=True)
class FuzzFailure:
    """One audited case that violated an invariant."""

    case: int
    seed: int
    config_name: str
    check: str
    message: str
    trace_length: int
    #: ddmin-minimized failing trace (equal to the original when shrinking
    #: is disabled or the failure evaporated under shrinking).
    shrunk: tuple[TraceRecord, ...] = field(default=(), repr=False)


def build_trace(seed: int, length: int = 350) -> list[TraceRecord]:
    """One seeded random trace: random program, random walk, random splices."""
    rng = random.Random(seed)
    shape = ProgramShape(
        functions=rng.randint(2, 24),
        blocks_per_function=(2, 6),
        instructions_per_block=(1, 4),
        call_fraction=rng.uniform(0.0, 0.3),
        loop_fraction=rng.uniform(0.0, 0.4),
        indirect_fraction=rng.uniform(0.0, 0.1),
        seed=rng.randrange(1 << 16),
    )
    profile = WalkProfile(
        uniform_fraction=rng.random(),
        max_call_depth=3,
        max_loop_iterations=8,
        seed=rng.randrange(1 << 16),
    )
    trace = generate_trace(build_program(shape), length, profile)
    # Random slice deletions: context switches / interrupts in the trace.
    for _ in range(rng.randint(0, 3)):
        if len(trace) > 20:
            start = rng.randrange(len(trace) - 10)
            del trace[start:start + rng.randint(1, 10)]
    return trace


#: Named seed families for :func:`fuzz`'s trace corpus.  ``random`` is the
#: historical generator (:func:`build_trace`); ``adversarial`` draws from
#: the BTB-probe microbenchmarks; ``mixed`` alternates by seed parity.
CORPUS_NAMES = ("random", "adversarial", "mixed")


def corpus_builder(corpus: str) -> Callable[[int, int], list[TraceRecord]]:
    """Resolve a named seed family to a ``builder(seed, length)`` callable."""
    if corpus == "random":
        return lambda seed, length: build_trace(seed, length)
    from repro.workloads.adversarial import corpus_trace

    if corpus == "adversarial":
        return corpus_trace
    if corpus == "mixed":
        def mixed(seed: int, length: int) -> list[TraceRecord]:
            if seed % 2:
                return corpus_trace(seed, length)
            return build_trace(seed, length)

        return mixed
    raise ValueError(
        f"unknown corpus {corpus!r}; expected one of {CORPUS_NAMES}")


def run_case(
    trace: list[TraceRecord],
    config: PredictorConfig,
    timing: TimingParams = DEFAULT_TIMING,
    interval: int = FUZZ_AUDIT_INTERVAL,
) -> AuditViolation | None:
    """Run one fully audited simulation; return the violation, if any."""
    auditor = Auditor(interval=interval, trace_depth=32)
    try:
        Simulator(config=config, timing=timing, audit=auditor).run(trace)
    except AuditViolation as violation:
        return violation
    return None


def shrink(
    trace: list[TraceRecord],
    fails: Callable[[list[TraceRecord]], bool],
) -> list[TraceRecord]:
    """ddmin-style minimization: greedily delete chunks while still failing.

    Deleting any slice of records yields another valid trace (splice
    points become context switches), so plain chunked delta debugging
    applies.  Complexity is O(n log n) predicate runs on short traces.

    ``fails`` is the failure predicate: :func:`fuzz` passes "an audited
    run raises a violation" (:func:`run_case`), the lockstep oracle "the
    lockstep still diverges" (:func:`repro.oracle.shrink_divergence`).
    """
    current = list(trace)
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        index = 0
        while index < len(current):
            candidate = current[:index] + current[index + chunk:]
            if candidate and fails(candidate):
                current = candidate
            else:
                index += chunk
        chunk //= 2
    return current


def fuzz(
    cases: int = 200,
    seed: int = 0,
    records: int = 350,
    configs: dict[str, PredictorConfig] | None = None,
    shrink_failures: bool = True,
    progress=None,
    corpus: str = "random",
) -> list[FuzzFailure]:
    """Run ``cases`` seeded audited simulations; return all failures.

    Case ``i`` uses trace seed ``(seed << 20) ^ i`` and the ``i``-th config
    variant (round robin), so every variant sees ``cases / len(configs)``
    distinct traces and any failure is reproducible from its
    :class:`FuzzFailure` alone.  ``corpus`` selects the seed family
    (:func:`corpus_builder`); the default keeps the historical byte-exact
    case stream.
    """
    configs = FUZZ_CONFIGS if configs is None else configs
    builder = corpus_builder(corpus)
    names = list(configs)
    failures: list[FuzzFailure] = []
    for case in range(cases):
        case_seed = (seed << 20) ^ case
        name = names[case % len(names)]
        config = configs[name]
        trace = builder(case_seed, records)
        violation = run_case(trace, config)
        if violation is None:
            continue
        minimal = tuple(trace)
        if shrink_failures:
            minimal = tuple(shrink(
                trace,
                lambda candidate: run_case(candidate, config) is not None))
        failures.append(
            FuzzFailure(
                case=case,
                seed=case_seed,
                config_name=name,
                check=violation.check,
                message=str(violation),
                trace_length=len(trace),
                shrunk=minimal,
            )
        )
        if progress is not None:
            progress(
                f"case {case} ({name}): {violation.check} — "
                f"shrunk {len(trace)} -> {len(minimal)} records"
            )
    return failures


def render_failure(failure: FuzzFailure) -> str:
    """Human-readable failure report with a replayable minimal trace."""
    lines = [
        f"case {failure.case} seed {failure.seed} "
        f"config {failure.config_name!r}: check '{failure.check}' "
        f"({failure.trace_length} -> {len(failure.shrunk)} records)",
        failure.message,
        "minimal trace:",
    ]
    for record in failure.shrunk:
        lines.append(f"  {record!r}")
    return "\n".join(lines)
