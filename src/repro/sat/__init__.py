"""A CNF SAT solver and circuit encoder.

The paper's permissibility machinery is ATPG; modern reproductions of the
same idea (redundancy addition/removal, resubstitution) are SAT-based.
This package provides the SAT side:

- :mod:`~repro.sat.cnf` — CNF formulas and the Tseitin encoding of
  netlists and miters,
- :mod:`~repro.sat.incremental` — the one SAT solver: CDCL with clause
  learning, assumptions and a persistent database, behind the
  optimizer's triage permissibility front-end, the fact oracle and the
  SAT stage of :func:`repro.equiv.checker.check_equivalent`.
"""

from repro.sat.cnf import CnfFormula, tseitin_encode, miter_cnf
from repro.sat.incremental import IncrementalSolver, SAT, UNSAT, UNKNOWN

__all__ = [
    "CnfFormula",
    "tseitin_encode",
    "miter_cnf",
    "IncrementalSolver",
    "SAT",
    "UNSAT",
    "UNKNOWN",
]
