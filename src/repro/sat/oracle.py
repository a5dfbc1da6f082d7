"""SAT-based equivalence checking (cross-validation oracle).

``sat_check_equivalent`` answers the same question as
:func:`repro.equiv.checker.check_equivalent` through a different
pipeline: Tseitin-encode both circuits into one CNF with shared inputs
(:func:`~repro.sat.cnf.miter_cnf`), constrain some output pair to differ,
and solve it with the package's CDCL solver — the same
:class:`~repro.sat.incremental.IncrementalSolver` the optimizer's triage
proves moves with, here loaded once and solved once.

The test-suite runs both oracles on the same instances; agreement of two
engines that share no search code (PODEM/BDD over the circuit vs. CDCL
over the CNF) is strong evidence neither is quietly wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import NetlistError
from repro.netlist.netlist import Netlist
from repro.sat.cnf import miter_cnf
from repro.sat.incremental import UNKNOWN, UNSAT, IncrementalSolver


@dataclass
class SatEquivalenceResult:
    status: str  # "equal", "not-equal", "unknown"
    counterexample: Optional[dict[str, int]] = None
    conflicts: int = 0

    @property
    def equal(self) -> bool:
        return self.status == "equal"


def sat_check_equivalent(
    left: Netlist,
    right: Netlist,
    conflict_limit: int = 200_000,
) -> SatEquivalenceResult:
    """Decide equivalence by CNF satisfiability of the miter."""
    mismatch = set(left.input_names) ^ set(right.input_names)
    if mismatch:
        raise NetlistError(
            "operands have different input sets (name-matched, order "
            f"ignored); only on one side: {sorted(mismatch)}"
        )
    mismatch = set(left.outputs) ^ set(right.outputs)
    if mismatch:
        raise NetlistError(
            "operands have different output sets (name-matched, order "
            f"ignored); only on one side: {sorted(mismatch)}"
        )
    formula = miter_cnf(left, right)
    result = IncrementalSolver(formula).solve(conflict_limit=conflict_limit)
    if result.status == UNSAT:
        return SatEquivalenceResult("equal", conflicts=result.conflicts)
    if result.status == UNKNOWN:
        return SatEquivalenceResult("unknown", conflicts=result.conflicts)
    counterexample = {
        name: int(result.model.get(formula.var_of[name], False))
        for name in left.input_names
    }
    return SatEquivalenceResult(
        "not-equal", counterexample, conflicts=result.conflicts
    )
