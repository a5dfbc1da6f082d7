"""The equivalence / permissibility oracle.

``check_equivalent`` decides whether two netlists compute the same outputs
through one sequence of stages, whatever their size:

1. **Interface check** — differing primary-input or primary-output name
   sets raise :class:`~repro.errors.NetlistError`.
2. **Simulation** — simulate both on a shared random pattern set; any
   differing output word yields an immediate counterexample (most
   non-permissible substitutions die here, as in the paper's
   fault-simulation-based candidate filtering).
3. **BDD** — compare per-output ROBDDs under ``bdd_node_limit``; equal
   roots prove equivalence, a differing pair yields a counterexample by
   BDD descent.  A blow-up falls through.
4. **SAT** — Tseitin-encode both netlists into one miter CNF
   (:func:`~repro.sat.cnf.miter_cnf`) and solve it once with
   :class:`~repro.sat.incremental.IncrementalSolver` under
   ``conflict_limit``: UNSAT proves equivalence, a model is a
   counterexample (the SAT form of ATPG on the miter, Larrabee 1992).
5. Otherwise the verdict is :data:`UNKNOWN`, which callers must treat as
   "not proven" (the paper's abort semantics, §3.5).

``num_patterns=0`` and ``bdd_node_limit=0`` switch their stages off, so
``check_equivalent(left, right, num_patterns=0, bdd_node_limit=0)`` is
the SAT stage alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import NetlistError
from repro.kernels.bits import first_pattern
from repro.netlist.netlist import Netlist
from repro.netlist.simulate import SimState, random_patterns
from repro.sat.cnf import miter_cnf
from repro.sat.incremental import SAT, UNSAT, IncrementalSolver

EQUAL = "equal"
NOT_EQUAL = "not-equal"
UNKNOWN = "unknown"

#: Default CDCL conflict budget of the SAT stage.
DEFAULT_CONFLICT_LIMIT = 200_000


def _validate_interfaces(left: Netlist, right: Netlist) -> None:
    """Reject differing interface name *sets* up front, with the names.

    Every stage downstream (pattern dicts, BDD orders, the miter) matches
    signals by name, so a true mismatch would otherwise surface as a deep
    KeyError or a missing-pattern crash far from the cause.
    """
    mismatch = set(left.input_names) ^ set(right.input_names)
    if mismatch:
        raise NetlistError(
            "cannot compare netlists with different primary-input sets "
            f"(matching is by name, order-independent); only on one "
            f"side: {sorted(mismatch)}"
        )
    mismatch = set(left.outputs) ^ set(right.outputs)
    if mismatch:
        raise NetlistError(
            "cannot compare netlists with different primary-output sets "
            f"(matching is by name, order-independent); only on one "
            f"side: {sorted(mismatch)}"
        )


@dataclass
class EquivalenceResult:
    """Verdict plus evidence."""

    status: str  # EQUAL, NOT_EQUAL or UNKNOWN
    counterexample: Optional[dict[str, int]] = None  # PI name -> 0/1
    stage: str = ""  # "simulation", "bdd" or "sat"
    #: CDCL conflicts the SAT stage spent (0 when another stage decided).
    conflicts: int = 0

    @property
    def equal(self) -> bool:
        return self.status == EQUAL

    def __bool__(self) -> bool:  # pragma: no cover - convenience only
        return self.equal


def _simulation_counterexample(
    left: Netlist, right: Netlist, num_patterns: int, seed: int
) -> Optional[dict[str, int]]:
    patterns = random_patterns(left.input_names, num_patterns, seed)
    sim_left = SimState(left, patterns)
    sim_right = SimState(right, patterns)
    for po in left.outputs:
        diff = sim_left.value(left.outputs[po].name) ^ sim_right.value(
            right.outputs[po].name
        )
        if diff:
            pattern = first_pattern(diff)
            return {
                name: (sim_left.value(name) >> pattern) & 1
                for name in left.input_names
            }
    return None


def _bdd_verdict(
    left: Netlist, right: Netlist, node_limit: int
) -> Optional[EquivalenceResult]:
    """Exact comparison through global BDDs; None when they blow up."""
    from repro.logic.bdd import BddSizeError
    from repro.netlist.bdds import netlist_bdds

    order = list(left.input_names)
    try:
        manager, left_nodes = netlist_bdds(left, node_limit=node_limit)
        manager, right_nodes = netlist_bdds(
            right, manager=manager, input_order=order
        )
        for po in left.outputs:
            l_node = left_nodes[left.outputs[po].name]
            r_node = right_nodes[right.outputs[po].name]
            if l_node != r_node:
                diff = manager.apply_xor(l_node, r_node)
                # Extract one distinguishing minterm by BDD descent.
                cex = {name: 0 for name in order}
                node = diff
                while node > 1:
                    var = manager.var_of(node)
                    if manager.low_of(node) != 0:
                        node = manager.low_of(node)
                    else:
                        cex[order[var]] = 1
                        node = manager.high_of(node)
                return EquivalenceResult(NOT_EQUAL, cex, stage="bdd")
    except BddSizeError:
        return None
    return EquivalenceResult(EQUAL, stage="bdd")


def _sat_verdict(
    left: Netlist, right: Netlist, conflict_limit: int
) -> EquivalenceResult:
    """Solve the CNF miter once: UNSAT is a proof, a model a witness."""
    formula = miter_cnf(left, right)
    result = IncrementalSolver(formula).solve(conflict_limit=conflict_limit)
    if result.status == UNSAT:
        return EquivalenceResult(EQUAL, stage="sat", conflicts=result.conflicts)
    if result.status == SAT:
        cex = {
            name: int(result.model.get(formula.var_of[name], False))
            for name in left.input_names
        }
        return EquivalenceResult(
            NOT_EQUAL, cex, stage="sat", conflicts=result.conflicts
        )
    return EquivalenceResult(UNKNOWN, stage="sat", conflicts=result.conflicts)


def check_equivalent(
    left: Netlist,
    right: Netlist,
    num_patterns: int = 2048,
    seed: int = 99,
    conflict_limit: int = DEFAULT_CONFLICT_LIMIT,
    bdd_node_limit: int = 200_000,
) -> EquivalenceResult:
    """Decide combinational equivalence of two netlists.

    Interfaces are matched **by name**: the operands may list their primary
    inputs and outputs in different orders (declaration order is a storage
    artifact, not semantics), and every stage — simulation patterns, BDD
    variable order, the miter — honors that.  Differing name *sets* raise
    :class:`~repro.errors.NetlistError` instead of producing a verdict.
    """
    _validate_interfaces(left, right)
    if left.input_names and num_patterns:
        cex = _simulation_counterexample(left, right, num_patterns, seed)
        if cex is not None:
            return EquivalenceResult(NOT_EQUAL, cex, stage="simulation")
    if bdd_node_limit > 0:
        verdict = _bdd_verdict(left, right, bdd_node_limit)
        if verdict is not None:
            return verdict
    return _sat_verdict(left, right, conflict_limit)
