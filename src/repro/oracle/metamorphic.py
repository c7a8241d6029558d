"""Metamorphic conformance transforms: model invariances as tests.

Some properties of the model are known *a priori*, independent of any
reference implementation: the simulator computes nothing from absolute
address values except structure indices, tags and folded path hashes, all
of which live in address bits below bit 22.  Relabeling a program by a
multiple of :data:`RELABEL_GRANULE` therefore must not change a single
counter — any drift is an address-handling bug (an absolute-address
comparison, a bit leaking into an index, a cache keyed on raw addresses).

Provided transforms:

* :func:`relabel` — shift every address/target by one aligned offset;
* :func:`permute_regions` — permute the coarse address regions (modules)
  of a multi-region trace, each region moving by its own aligned offset;
* :func:`run_counters` — a full comparable fingerprint of a run's result
  (every counter, penalty and structure statistic), for exact equality
  assertions between transformed runs.

The relabel invariance is enforced for every registered predictor by the
conformance battery (:func:`repro.predictors.conformance.check_relabel`).
The pytest suite (``tests/oracle/test_metamorphic.py``) adds two further
invariances: trace concatenation behaves as a context switch
(simulate(A+B) == resume(snapshot(simulate(A)), B)) and sampled runs
agree with full runs within their reported confidence intervals.
"""

from __future__ import annotations

from repro.engine.simulator import SimulationResult
from repro.trace.record import TraceRecord

#: Required alignment of relabeling offsets: bit 22 is above every index,
#: tag and fold bit any architected structure consumes (BTB rows ≤ 4096 →
#: address bits 5..16; PHT/CTB tags and folds fold halfword bits 1..16;
#: 32k surprise BHT → bits 1..15; icache sets well below bit 22), so an
#: aligned shift leaves all low-order address arithmetic untouched.
RELABEL_GRANULE = 1 << 22


def relabel(trace: list[TraceRecord], offset: int) -> list[TraceRecord]:
    """Shift every address and target by ``offset`` (granule-aligned)."""
    if offset % RELABEL_GRANULE:
        raise ValueError(
            f"relabel offset must be a multiple of {RELABEL_GRANULE:#x}, "
            f"got {offset:#x}"
        )
    return [
        TraceRecord(
            address=record.address + offset,
            length=record.length,
            kind=record.kind,
            taken=record.taken,
            target=(
                record.target + offset if record.target is not None else None
            ),
        )
        for record in trace
    ]


def permute_regions(
    trace: list[TraceRecord], region_bits: int = 30
) -> list[TraceRecord]:
    """Reverse the order of the trace's coarse address regions (modules).

    Every distinct region (address ``>> region_bits``), in first-seen
    order, is remapped to the reversed region list; low bits are preserved,
    so each region moves by a multiple of the relabel granule.  With one
    region this is the identity; conditional branches must stay within
    their region (calls/returns/indirects are always-taken, so the
    backward-branch heuristic never sees their cross-region targets).
    """
    if region_bits < 22:
        raise ValueError("region_bits below 22 would disturb index bits")
    regions: list[int] = []
    for record in trace:
        for address in (record.address, record.target):
            if address is not None and (address >> region_bits) not in regions:
                regions.append(address >> region_bits)
    mapping = dict(zip(regions, reversed(regions)))
    mask = (1 << region_bits) - 1

    def move(address: int | None) -> int | None:
        if address is None:
            return None
        return (mapping[address >> region_bits] << region_bits) | (
            address & mask
        )

    return [
        TraceRecord(
            address=move(record.address),
            length=record.length,
            kind=record.kind,
            taken=record.taken,
            target=move(record.target),
        )
        for record in trace
    ]


def run_counters(result: SimulationResult) -> dict:
    """Address-free fingerprint of one run's result, for exact comparison.

    Everything counted — cycles, outcome taxonomy, penalties, search and
    preload traffic, structure statistics — none of which embeds an
    absolute address, so two behaviorally identical runs of relabeled
    traces produce equal fingerprints.  The zoo's results carry counters
    only; their statistics sections are empty.
    """
    return {
        "counters": result.counters.state_dict(),
        "search": dict(result.search_stats),
        "btbp": dict(result.btbp_stats),
        "btb2": dict(result.btb2_stats),
        "preload": dict(result.preload_stats),
        "icache": dict(result.icache_stats),
    }
