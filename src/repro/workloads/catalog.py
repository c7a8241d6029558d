"""The 13 large-footprint workloads of Table 4, as calibrated synthetics.

Each :class:`WorkloadSpec` names one of the paper's traces and carries the
paper's unique-branch counters (Table 4) plus the generator parameters that
approximate them.  Generated traces are cached on disk (the binary format of
:mod:`repro.trace.writer`) keyed by the full parameter set, so repeated
experiment runs do not pay generation time twice: ``trace_path()`` is the
validated cache file that runs stream from, ``trace()`` the decoded list.

Calibration targets the things the mechanism under study is sensitive to
(DESIGN.md §1): the unique (taken) branch address population relative to the
4k-entry BTB1, the hot/cold reuse mix, and an instruction footprint that
exceeds the 64 KB L1I for the large workloads.  Exact Table 4 numbers are
not claimed; ``benchmarks/bench_table4_traces.py`` prints paper-vs-measured.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace
from pathlib import Path

from repro.atomic import publish
from repro.trace.reader import TraceFormatError, load_trace, open_trace
from repro.trace.record import TraceRecord
from repro.trace.stats import TraceStats, collect_stats
from repro.trace.writer import save_trace
from repro.workloads.generator import (
    WalkProfile,
    generate_mixed_trace,
    generate_trace,
)
from repro.workloads.program import Program, ProgramShape, build_program

#: Environment variable scaling trace lengths (not code footprints), used by
#: the benchmark harness to keep wall-clock reasonable.
SCALE_ENV = "REPRO_SCALE"
#: Environment variable overriding the trace cache directory.
CACHE_ENV = "REPRO_TRACE_CACHE"

#: Rough *visited* branches per function for the default shape family (a
#: single visit executes one path, not every block); used to size function
#: pools from Table 4 targets.
BRANCHES_PER_FUNCTION = 4

#: Cold-pool sizing anchor: the DayTrader DBServ pool (the paper's
#: highest-gain trace) gets this many functions; other workloads scale by
#: their Table 4 unique-branch ratio, clamped so every workload keeps a
#: working set well beyond first-level capacity (floor) while the giants
#: stay simulable (ceiling).  See DESIGN.md §1 on working-set scaling.
ANCHOR_FUNCTIONS = 3_000
ANCHOR_UNIQUE = 34_819
FUNCTIONS_FLOOR = 1_200
FUNCTIONS_CEILING = 6_500


class CachedTrace:
    """The on-disk trace cache, shared by both workload families.

    A subclass is a frozen dataclass with a ``name`` and a
    ``generate(scale)`` that builds its trace: the Table 4 synthetics
    (:class:`WorkloadSpec`) and the adversarial probes
    (:class:`repro.workloads.adversarial.AdversarialSpec`).  The spec's repr
    and the scale key the cache file (:func:`_cache_path`), so two specs
    that differ in any parameter never share a file.
    """

    def trace_path(self, scale: float | None = None) -> Path | None:
        """The validated cache file of the trace at ``scale``.

        A file whose header or size is wrong (truncated, stale format) is
        regenerated, like a missing one.  Returns ``None`` when the trace
        cache is off (``REPRO_TRACE_CACHE`` set to ``off``/``none``/empty):
        there is then no file to stream from.
        """
        if scale is None:
            scale = default_scale()
        cache_file = _cache_path(self, scale)
        if cache_file is None:
            return None
        try:
            # Cheap validation: open_trace checks header + exact size.
            open_trace(cache_file).close()
        except (FileNotFoundError, TraceFormatError):
            _write_cache(cache_file, self.generate(scale))
        return cache_file

    def trace(self, scale: float | None = None) -> list[TraceRecord]:
        """The whole trace at ``scale`` (default: env/1.0) as a list.

        Decoded from :meth:`trace_path`'s file, or generated when the
        trace cache is off.
        """
        if scale is None:
            scale = default_scale()
        path = self.trace_path(scale)
        return self.generate(scale) if path is None else load_trace(path)

    def stats(self, scale: float | None = None) -> TraceStats:
        """Trace statistics (the measured Table 4 row)."""
        return collect_stats(self.trace(scale))


@dataclass(frozen=True)
class WorkloadSpec(CachedTrace):
    """One named workload: paper counters + generator parameters."""

    name: str
    paper_unique_branches: int
    paper_unique_taken: int
    trace_length: int
    shape: ProgramShape
    profile: WalkProfile
    #: Second program shape for time-sliced mixes (Table 4 trace 5).
    mix_shape: ProgramShape | None = None
    mix_slice: int = 20_000
    base_address: int = 0x0000_0000_1000_0000

    def build_programs(self, scale: float = 1.0) -> list[Program]:
        """Construct the program(s) of this workload at ``scale``.

        Sub-unity scales shrink the function pool along with the trace
        length (see :func:`scaled_functions`) so the revisit rate — the
        thing capacity misses depend on — survives scaling.
        """
        shapes = [self.shape] + ([self.mix_shape] if self.mix_shape else [])
        programs = []
        for index, shape in enumerate(shapes):
            if scale < 1.0:
                shape = replace(
                    shape, functions=scaled_functions(shape.functions, scale)
                )
            programs.append(
                build_program(
                    shape, base_address=self.base_address + index * (1 << 30)
                )
            )
        return programs

    def scaled_length(self, scale: float) -> int:
        """Trace length under ``scale`` (floor of 50k records)."""
        return max(50_000, int(self.trace_length * scale))

    def generate(self, scale: float = 1.0) -> list[TraceRecord]:
        """Generate the trace without touching the cache."""
        length = self.scaled_length(scale)
        programs = self.build_programs(scale)
        if len(programs) == 1:
            return generate_trace(programs[0], length, self.profile)
        return generate_mixed_trace(programs, length, self.mix_slice, self.profile)


def _write_cache(cache_file: Path, records: list[TraceRecord]) -> None:
    """Atomically publish ``records`` to ``cache_file``.

    Write-then-rename: a concurrent reader must never observe a
    half-written trace (the format's record count is patched into the
    header after the body).
    """
    with publish(cache_file) as scratch:
        save_trace(scratch, records)


def scaled_functions(functions: int, scale: float) -> int:
    """Function-pool size under a sub-unity trace scale.

    Down to one-third scale the pool stays at full size: shorter traces
    visit fewer of the functions, but the *visited* working set still
    exceeds first-level BTB capacity, and the walker's echo revisits keep
    supplying revisit-after-eviction reuse — the capacity phenomenon
    survives (the bench harness therefore defaults to 0.35, not lower).
    Below one third, the pool shrinks proportionally so micro-scale test
    traces remain self-consistent.
    """
    factor = min(1.0, scale / 0.3)
    floor = min(functions, FUNCTIONS_FLOOR)
    return max(floor, round(functions * factor))


def default_scale() -> float:
    """Trace-length scale from the environment (``REPRO_SCALE``)."""
    raw = os.environ.get(SCALE_ENV)
    if not raw:
        return 1.0
    scale = float(raw)
    if scale <= 0:
        raise ValueError(f"{SCALE_ENV} must be positive, got {raw}")
    return scale


def trace_identity(spec: CachedTrace, scale: float) -> str:
    """Stable identity of one generated trace.

    Keys the trace's cache file and, as the trace key, its checkpoints.
    """
    return hashlib.sha256(repr((spec, scale)).encode()).hexdigest()[:16]


def _cache_path(spec: CachedTrace, scale: float) -> Path | None:
    root = os.environ.get(CACHE_ENV, ".trace_cache")
    if root in ("", "off", "none"):
        return None
    key = trace_identity(spec, scale)
    safe_name = spec.name.replace("/", "_").replace(" ", "_").replace("+", "_")
    return Path(root) / f"{safe_name}-{key}.ztrc"


def _spec(
    name: str,
    paper_unique: int,
    paper_taken: int,
    *,
    length: int,
    hot: float,
    taken_bias: float,
    seed: int,
    loop_fraction: float = 0.15,
    mix_with: ProgramShape | None = None,
) -> WorkloadSpec:
    """Build one catalog entry from Table 4 targets.

    ``hot`` is the Zipf-hot fraction of transactions (1 - cold fraction);
    ``taken_bias`` is the biased-taken share of forward conditionals,
    steering the ever-taken / all-branches ratio toward the Table 4 ratio.

    The cold function pool scales with the workload's Table 4 unique-branch
    count (anchored at DayTrader DBServ) so that every workload's working
    set exceeds first-level BTB capacity by a workload-proportional factor
    and cold code is revisited ~4 times within the trace budget — the
    population and reuse structure the capacity-miss taxonomy of Figure 4
    depends on.
    """
    functions = max(
        FUNCTIONS_FLOOR,
        min(FUNCTIONS_CEILING, round(ANCHOR_FUNCTIONS * paper_unique / ANCHOR_UNIQUE)),
    )
    if mix_with is not None:
        functions //= 2
    shape = ProgramShape(
        functions=functions,
        blocks_per_function=(3, 7),
        instructions_per_block=(2, 5),
        call_fraction=0.14,
        forward_taken_bias=taken_bias,
        loop_fraction=loop_fraction,
        loop_trips=(2, 6),
        indirect_fraction=0.02,
        seed=seed,
    )
    return WorkloadSpec(
        name=name,
        paper_unique_branches=paper_unique,
        paper_unique_taken=paper_taken,
        trace_length=length,
        shape=shape,
        profile=WalkProfile(
            uniform_fraction=1.0 - hot,
            burst_mean=2.0,
            max_loop_iterations=12,
            max_call_depth=4,
            seed=seed * 31 + 7,
        ),
        mix_shape=mix_with,
    )


def _half_mix_shape(paper_unique: int, taken_bias: float, seed: int) -> ProgramShape:
    functions = max(
        FUNCTIONS_FLOOR,
        min(FUNCTIONS_CEILING, round(ANCHOR_FUNCTIONS * paper_unique / ANCHOR_UNIQUE)),
    )
    return ProgramShape(
        functions=functions // 2,
        blocks_per_function=(3, 7),
        instructions_per_block=(2, 5),
        call_fraction=0.14,
        forward_taken_bias=taken_bias,
        indirect_fraction=0.02,
        seed=seed,
    )


# The 13 traces of Table 4.  Paper counters are verbatim; lengths and mix
# knobs are our calibration (larger footprints get longer traces and a
# colder transaction mix, like the server-side workloads they model).
TABLE4_WORKLOADS: tuple[WorkloadSpec, ...] = (
    _spec("Z/OS LSPR CB84", 15_244, 10_963, length=950_000, hot=0.55,
          taken_bias=0.45, seed=101, loop_fraction=0.18),
    _spec("Z/OS LSPR CICS/DB2", 40_667, 27_500, length=1_800_000, hot=0.48,
          taken_bias=0.40, seed=102),
    _spec("Z/OS LSPR IMS", 29_692, 19_673, length=1_450_000, hot=0.50,
          taken_bias=0.38, seed=103),
    _spec("Z/OS LSPR CB-L", 25_622, 16_612, length=1_250_000, hot=0.50,
          taken_bias=0.36, seed=104),
    _spec("Z/OS LSPR WASDB+CBW2", 114_955, 51_371, length=2_000_000, hot=0.42,
          taken_bias=0.18, seed=105,
          mix_with=_half_mix_shape(114_955, 0.18, 1105)),
    _spec("Z/OS Trade6", 115_509, 56_017, length=2_000_000, hot=0.42,
          taken_bias=0.20, seed=106),
    _spec("TPF airline reservations", 11_160, 9_317, length=900_000, hot=0.58,
          taken_bias=0.60, seed=107, loop_fraction=0.22),
    _spec("Z/OS AppServ benchmark", 26_340, 16_980, length=1_300_000, hot=0.50,
          taken_bias=0.36, seed=108),
    _spec("Z/OS DBServ benchmark", 38_655, 20_020, length=1_800_000, hot=0.48,
          taken_bias=0.24, seed=109),
    _spec("Z/OS DayTrader AppServ", 67_336, 30_165, length=2_000_000, hot=0.45,
          taken_bias=0.18, seed=110),
    _spec("Z/OS DayTrader DBServ", 34_819, 22_217, length=1_700_000, hot=0.48,
          taken_bias=0.38, seed=111),
    _spec("zLinux Informix", 16_810, 11_765, length=950_000, hot=0.54,
          taken_bias=0.42, seed=112),
    _spec("zLinux Trade6", 69_847, 31_897, length=2_000_000, hot=0.45,
          taken_bias=0.20, seed=113),
)


def workload_by_name(name: str):
    """Look up a catalog workload by (case-insensitive substring) name.

    Searches the Table 4 synthetics first, then the adversarial
    microbenchmark family (:mod:`repro.workloads.adversarial`), so both
    populations resolve through one name space everywhere a workload can
    be named (``simulate``, ``RunSpec``, golden gates, ablations).
    """
    lowered = name.lower()
    for spec in TABLE4_WORKLOADS:
        if lowered in spec.name.lower():
            return spec
    from repro.workloads.adversarial import ADVERSARIAL_WORKLOADS

    for spec in ADVERSARIAL_WORKLOADS:
        if lowered in spec.name.lower():
            return spec
    raise KeyError(f"no workload matching {name!r}")


#: The traces singled out by the paper's result sections.
DAYTRADER_DBSERV = workload_by_name("DayTrader DBServ")
WASDB_CBW2 = workload_by_name("WASDB+CBW2")
WEB_CICS_DB2 = workload_by_name("CICS/DB2")
