"""ATPG: automatic test pattern generation for stuck-at faults.

This package is the paper's enabling technology — permissible substitutions
are identified by test generation (§3.2, refs [2, 5]); the optimizer runs
that test in its SAT form (:mod:`repro.transform.permissible`).  It
provides:

- :mod:`~repro.atpg.values` — 3- and 5-valued logic evaluation of library
  cells (the D-calculus),
- :mod:`~repro.atpg.fault` — stuck-at faults on stems and branches,
- :mod:`~repro.atpg.faultsim` — bit-parallel parallel-pattern fault
  simulation,
- :mod:`~repro.atpg.podem` — a PODEM test generator with a backtrack limit,
- :mod:`~repro.atpg.redundancy` — redundancy identification built on PODEM.
"""

from repro.atpg.fault import StuckAtFault, all_stem_faults, all_faults
from repro.atpg.faultsim import fault_simulate, detected_mask, fault_coverage
from repro.atpg.podem import Podem, PodemResult
from repro.atpg.redundancy import is_redundant

__all__ = [
    "StuckAtFault",
    "all_stem_faults",
    "all_faults",
    "fault_simulate",
    "detected_mask",
    "fault_coverage",
    "Podem",
    "PodemResult",
    "is_redundant",
]
