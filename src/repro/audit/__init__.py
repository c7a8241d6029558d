"""Runtime invariant auditing and event tracing for the simulator.

``repro.audit`` is the machine-checked answer to "do we trust the model's
fine-grained state?".  The paper's claims hinge on structural behaviour —
semi-exclusive BTB1/BTB2 movement, Table 1/2 search timing, tracker
filtering — and related work (e.g. *Branch Target Buffer Reverse
Engineering on Arm*, arXiv:2412.05413) shows replacement/indexing details
are exactly where models drift from hardware.  Since PR 1 every figure is
served from a shared result cache, so one silent state bug poisons every
downstream table; invariants are checked at runtime instead of eyeballed.

Design: every audited component (:class:`repro.engine.simulator.Simulator`,
:class:`repro.core.search.LookaheadSearch`,
:class:`repro.btb.storage.BranchTargetBuffer`,
:class:`repro.preload.engine.PreloadEngine`) carries an ``audit`` attribute
that defaults to ``None``; hook sites are a single attribute test, so the
subsystem is zero-cost when off.  Passing an :class:`Auditor` to the
simulator wires it into the whole tree (:meth:`Auditor.attach`).

Checked invariants (see :mod:`repro.audit.invariants` for the detail):

* **counter conservation** — outcome kinds sum to ``branches``; attributed
  penalty cycles plus decode time reconstruct the total clock;
* **monotone clocks** — decode, search (between restarts), and transfer
  clocks never run backward;
* **BTB structural sanity** — row width within ``ways``, no duplicate
  tags in a row, MRU bookkeeping consistent with :meth:`is_mru`;
* **first-level/second-level exclusivity** — entry *objects* live in at
  most one structure (levels exchange clones, never share references);
* **tracker-file consistency** — one tracker per 4 KB block, no armed
  BLOCK-mode deadline on a reset or fully-active tracker, no outstanding
  rows on FREE/ICACHE_ONLY trackers;
* **prediction residency** — a used prediction's entry object is resident
  in the structure the prediction claims it came from.

Usage::

    from repro.audit import Auditor
    from repro.engine.simulator import Simulator

    sim = Simulator(config, audit=Auditor())
    sim.run(trace)          # raises AuditViolation on the first breach

The ``REPRO_AUDIT`` environment variable (``1``/``true``/``on``) makes
:func:`repro.experiments.common.run_workload` audit every simulation it
performs — the CLI's ``--audit`` flag sets it for the duration of the
command (:func:`restored_environ` puts the caller's environment back), so
any figure or the whole ``run_all`` report can be re-executed under
audit.  Audited runs bypass result-cache *reads* (a cache hit would skip
the checks) but still publish their results, which are identical to
unaudited ones.

The property-fuzz harness lives in :mod:`repro.audit.fuzz` (driven by
``scripts/fuzz_audit.py`` and ``tests/test_audit_fuzz.py``): seeded random
traces through every shipped configuration variant with all audits
enabled, shrinking any failure to a minimal trace.
"""

from repro.audit.auditor import (
    AUDIT_ENV,
    Auditor,
    AuditViolation,
    audit_from_env,
    restored_environ,
)

__all__ = [
    "AUDIT_ENV",
    "Auditor",
    "AuditViolation",
    "audit_from_env",
    "restored_environ",
]
