"""Combinational equivalence checking.

The permissibility oracle of the optimizer reduces to one question: do two
netlists (original, and original-with-substitution) compute the same primary
outputs?  :func:`~repro.equiv.checker.check_equivalent` answers it through
one sequence of stages at every size — bit-parallel simulation for cheap
counterexamples, a bounded ROBDD comparison, then the CNF miter of
:func:`~repro.sat.cnf.miter_cnf` solved once by the package's CDCL solver
to find a distinguishing vector or prove there is none.  An unresolvable
query returns UNKNOWN, which callers must treat as "not proven" (the
paper's abort semantics).
"""

from repro.equiv.checker import (
    EquivalenceResult,
    EQUAL,
    NOT_EQUAL,
    UNKNOWN,
    check_equivalent,
)

__all__ = [
    "EquivalenceResult",
    "EQUAL",
    "NOT_EQUAL",
    "UNKNOWN",
    "check_equivalent",
]
