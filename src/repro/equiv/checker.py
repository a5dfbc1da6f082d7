"""The equivalence / permissibility oracle.

``check_equivalent`` decides whether two netlists compute the same outputs:

1. **Simulation filter** — simulate both on a shared random pattern set; any
   differing output word yields an immediate counterexample (most
   non-permissible substitutions die here, as in the paper's
   fault-simulation-based candidate filtering).
2. **BDD first on large pairs** — when the two netlists together have
   more than :data:`BDD_FIRST_GATE_THRESHOLD` gates (80), compare
   per-output ROBDDs under a node limit before any search; at that size
   one justification pass already costs more than typical whole-circuit
   BDDs.  A blow-up falls through to the ATPG stage.
3. **ATPG decision** — build the miter and ask the PODEM justifier for an
   input vector driving it to 1, first under a quick budget (at most 2,000
   backtracks).  SAT gives a counterexample; UNSAT proves equivalence.
4. **BDD fallback, then the full budget** — when the quick search aborts
   (XOR/carry-chain miters have exponential branch-and-bound trees but
   linear BDDs), compare BDDs; if they blow up too, rerun PODEM with the
   full ``backtrack_limit``.  Only if that also aborts does the check
   return :data:`UNKNOWN`, which callers must treat as "not permissible"
   (paper §3.5 semantics).

``bdd_node_limit=0`` switches both BDD stages off, and the search then
gets its full budget at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.atpg.podem import DEFAULT_BACKTRACK_LIMIT, justify
from repro.equiv.miter import build_miter
from repro.errors import AtpgAbort, NetlistError
from repro.kernels.bits import first_pattern
from repro.netlist.netlist import Netlist
from repro.netlist.simulate import SimState, random_patterns

EQUAL = "equal"
NOT_EQUAL = "not-equal"
UNKNOWN = "unknown"


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
    stage: str = ""  # "simulation", "bdd" or "atpg"
    backtracks: int = 0

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


#: Above this many gates, try the BDD comparison before the ATPG search —
#: at that size one justification pass already costs more than typical
#: whole-circuit BDDs (the search stays as the fallback when BDDs blow up).
BDD_FIRST_GATE_THRESHOLD = 80


def check_equivalent(
    left: Netlist,
    right: Netlist,
    num_patterns: int = 2048,
    seed: int = 99,
    backtrack_limit: int = DEFAULT_BACKTRACK_LIMIT,
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
    if (
        bdd_node_limit > 0
        and left.num_gates() + right.num_gates() > BDD_FIRST_GATE_THRESHOLD
    ):
        verdict = _bdd_verdict(left, right, bdd_node_limit)
        if verdict is not None:
            return verdict
    miter, out = build_miter(left, right)
    # Stage the ATPG budget: most decisions need few backtracks, and when
    # the search stalls the BDD fallback usually resolves instantly (XOR
    # chains).  Only when BDDs blow up too is the full budget spent.
    quick_limit = min(backtrack_limit, 2000) if bdd_node_limit > 0 else backtrack_limit
    try:
        result = justify(miter, out, 1, quick_limit)
    except AtpgAbort:
        if bdd_node_limit > 0:
            verdict = _bdd_verdict(left, right, bdd_node_limit)
            if verdict is not None:
                return verdict
        if quick_limit < backtrack_limit:
            try:
                result = justify(miter, out, 1, backtrack_limit)
            except AtpgAbort:
                return EquivalenceResult(UNKNOWN, stage="atpg")
        else:
            return EquivalenceResult(UNKNOWN, stage="atpg")
    if result.testable:
        # Complete the partial assignment deterministically with zeros.
        cex = {name: result.assignment.get(name, 0) for name in left.input_names}
        return EquivalenceResult(
            NOT_EQUAL, cex, stage="atpg", backtracks=result.backtracks
        )
    return EquivalenceResult(EQUAL, stage="atpg", backtracks=result.backtracks)
