"""Adversarial BTB-probe microbenchmark workloads.

Parameterized generated microbenchmarks in the style of the BTB
reverse-engineering-on-Arm work: instead of modeling a commercial trace,
each family is *constructed* to probe one corner of a bounded target store —
capacity, row associativity, target aliasing, and preload-tracker thrash.
They register in the workload catalog (``workload_by_name`` resolves them
after the Table 4 entries), run through ``repro simulate`` and the
experiment pool like any workload, and double as a seeded fuzz corpus for
the auditor and the differential oracles (:func:`corpus_trace`).

Construction: every *site* is a small basic block — ``fillers`` straight
-line records followed by one always-taken branch targeting the next
site's entry point — so control flow chains block to block with **zero**
unintended trace discontinuities; every trace property is then a pure
function of the site geometry:

* ``btb-capacity`` — more branch sites than the BTB1 holds, visited round
  robin at a cache-friendly stride: pure capacity-eviction pressure.
* ``btb-associativity`` — a handful of sites exactly one BTB1 row apart
  (stride = rows × 32 B), overcommitting a single row's ways.
* ``target-aliasing`` — indirect branches whose targets alternate between
  two entry points of the successor block on every pass: stale-target
  mispredict pressure.
* ``tracker-thrash`` — sites interleaved across more 4 KB blocks than the
  preload engine has trackers, so every miss report fights for a tracker.
"""

from __future__ import annotations

from dataclasses import dataclass

import random

from repro.isa.opcodes import BranchKind
from repro.trace.record import TraceRecord
from repro.workloads.catalog import CachedTrace

#: Base address of the adversarial region — disjoint from the synthetic
#: catalog's program images (bit 30 set) so mixed experiments never alias.
ADVERSARIAL_BASE = 0x0000_0000_4000_0000

#: Bytes of one BTB row (mirrors ``repro.isa.address.ROW_BYTES``).
_ROW_BYTES = 32
#: BTB1 geometry the families are aimed at (``repro.btb.btb1``).
_BTB1_ROWS = 1024
_BTB1_CAPACITY = 4096


@dataclass(frozen=True)
class AdversarialSpec(CachedTrace):
    """One adversarial microbenchmark: site geometry plus walk length.

    Shares the catalog's trace cache
    (:class:`~repro.workloads.catalog.CachedTrace`) and duck-types the rest
    of the :class:`~repro.workloads.catalog.WorkloadSpec` surface the
    harness drives (``name``/``generate``/``scaled_length``), so it flows
    through ``RunSpec``, the result cache, and the CLI unchanged.
    """

    name: str
    family: str
    #: Branch sites (one always-taken branch each).
    sites: int
    #: Straight-line records preceding the branch within a site block.
    fillers: int
    #: Byte distance between consecutive site bases (within a group).
    stride: int
    #: Reference (scale=1.0) trace length in records.
    trace_length: int
    #: Interleaved groups (e.g. 4 KB pages for tracker thrash).
    groups: int = 1
    #: Byte distance between group bases.
    group_stride: int = 0
    #: Every ``kind_period``-th site is a conditional branch (0 = never).
    kind_period: int = 0
    #: Indirect branches with per-pass alternating successor entry points.
    alternate_targets: bool = False
    base_address: int = ADVERSARIAL_BASE

    def __post_init__(self) -> None:
        span = (self.fillers + 1) * 4
        if span > self.stride:
            raise ValueError(
                f"{self.name}: site block ({span} B) overruns stride "
                f"({self.stride} B)")
        if self.alternate_targets and self.fillers < 1:
            raise ValueError(
                f"{self.name}: alternating entry points need >= 1 filler")

    # -- geometry ------------------------------------------------------------

    def site_address(self, site: int) -> int:
        """Base address of site ``site`` (group-interleaved visit order)."""
        group = site % self.groups
        slot = site // self.groups
        return (self.base_address + group * self.group_stride
                + slot * self.stride)

    def _entry_offset(self, passes: int) -> int:
        """Block entry offset on pass ``passes`` (alternates when aliasing)."""
        if self.alternate_targets and passes % 2:
            return 4
        return 0

    def _site_kind(self, site: int) -> BranchKind:
        if self.kind_period and site % self.kind_period == 0:
            return BranchKind.COND
        if self.alternate_targets:
            return BranchKind.INDIRECT
        return BranchKind.UNCOND

    @property
    def records_per_pass(self) -> int:
        """Records emitted by one full round-robin pass over the sites."""
        return self.sites * (self.fillers + 1)

    @property
    def unique_branches(self) -> int:
        """Distinct branch sites (all of them taken every visit)."""
        return self.sites

    # -- generation ----------------------------------------------------------

    def scaled_length(self, scale: float) -> int:
        """Trace length under ``scale``.

        Floors at two full passes (so revisit-after-eviction behavior —
        the thing these benchmarks probe — exists at any scale) and at the
        4k-record microbenchmark minimum.
        """
        return max(4_000, 2 * self.records_per_pass,
                   int(self.trace_length * scale))

    def generate(self, scale: float = 1.0) -> list[TraceRecord]:
        """Generate the chained site walk without touching the cache."""
        length = self.scaled_length(scale)
        records: list[TraceRecord] = []
        passes = 0
        while len(records) < length:
            offset = self._entry_offset(passes)
            for site in range(self.sites):
                base = self.site_address(site)
                for filler in range(offset // 4, self.fillers):
                    records.append(TraceRecord(base + filler * 4, 4))
                if site + 1 < self.sites:
                    target = (self.site_address(site + 1)
                              + self._entry_offset(passes))
                else:
                    target = (self.site_address(0)
                              + self._entry_offset(passes + 1))
                records.append(TraceRecord(
                    base + self.fillers * 4, 4,
                    kind=self._site_kind(site), taken=True, target=target))
                offset = self._entry_offset(passes)
            passes += 1
        return records[:length]


#: The adversarial workload family, in catalog order.
ADVERSARIAL_WORKLOADS: tuple[AdversarialSpec, ...] = (
    AdversarialSpec(
        name="adversarial/btb-capacity",
        family="capacity",
        sites=6144,          # 1.5x the 4k-entry BTB1
        fillers=2,
        stride=64,
        kind_period=4,
        trace_length=300_000,
    ),
    AdversarialSpec(
        name="adversarial/btb-associativity",
        family="associativity",
        sites=12,            # 3x the BTB1's 4 ways, all in one row
        fillers=2,
        stride=_BTB1_ROWS * _ROW_BYTES,
        kind_period=3,
        trace_length=60_000,
    ),
    AdversarialSpec(
        name="adversarial/target-aliasing",
        family="aliasing",
        sites=24,
        fillers=2,
        stride=64,
        alternate_targets=True,
        trace_length=80_000,
    ),
    AdversarialSpec(
        name="adversarial/tracker-thrash",
        family="thrash",
        sites=48,            # 6 sites in each of 8 pages, page-interleaved
        fillers=2,
        stride=64,
        groups=8,
        group_stride=4096,
        trace_length=60_000,
    ),
)


def corpus_trace(seed: int, length: int = 350) -> list[TraceRecord]:
    """One seeded fuzz-corpus trace drawn from the adversarial families.

    Deterministic in ``seed``: picks a family, slices a random window out
    of its generated walk, and applies the same random slice deletions the
    random corpus uses (splice points read as context switches), so the
    auditor and differential oracles see adversarial *and* discontinuous
    structure.
    """
    rng = random.Random(seed)
    spec = ADVERSARIAL_WORKLOADS[seed % len(ADVERSARIAL_WORKLOADS)]
    records = spec.generate(0.0)
    start = rng.randrange(max(1, len(records) - length))
    trace = records[start:start + length]
    for _ in range(rng.randint(0, 3)):
        if len(trace) > 20:
            cut = rng.randrange(len(trace) - 10)
            del trace[cut:cut + rng.randint(1, 10)]
    return trace
