"""ATPG: automatic test pattern generation for stuck-at faults.

This package is the paper's enabling technology — permissible substitutions
are identified by test generation (§3.2, refs [2, 5]); the optimizer runs
that test in its SAT form (:mod:`repro.transform.permissible`), and so does
this package.  It provides:

- :mod:`~repro.atpg.fault` — stuck-at faults on stems and branches,
- :mod:`~repro.atpg.faultsim` — bit-parallel parallel-pattern fault
  simulation,
- :mod:`~repro.atpg.redundancy` — test generation and redundancy
  identification: a stuck-at fault is a constant move, decided by the
  triage SAT stage under a conflict budget.
"""

from repro.atpg.fault import StuckAtFault, all_stem_faults, all_faults
from repro.atpg.faultsim import fault_simulate, detected_mask, fault_coverage
from repro.atpg.redundancy import AtpgResult, generate_test, is_redundant

__all__ = [
    "StuckAtFault",
    "all_stem_faults",
    "all_faults",
    "fault_simulate",
    "detected_mask",
    "fault_coverage",
    "AtpgResult",
    "generate_test",
    "is_redundant",
]
