"""Stuck-at test generation and redundancy identification.

A stuck-at fault that no input vector can detect is *redundant*: the circuit
function does not depend on the faulted line's correct value, so the line
carries a don't-care that structural transformations can exploit.  This is
exactly the link between ATPG and permissible transformations exploited by
the paper's references [1, 2, 4, 5].

A stuck-at-``v`` fault is a constant move: a faulty stem is that stem
rewired to a literal fixed to ``v``, a faulty branch is that one pin
rewired the same way (``Substitution(OS2|IS2, target, "", constant=v,
branch=...)``).  :func:`generate_test` hands that move to the SAT stage
the optimizer's triage proves moves with
(:meth:`~repro.transform.permissible.TriageChecker.sat_verdict`, the SAT
form of ATPG, Larrabee 1992): a proof that the rewiring changes no output
means the fault is redundant, a counterexample is a test, and an exhausted
conflict budget is an abort.  An aborted search proves nothing, so callers
must treat it as "not shown redundant" (the paper's abort semantics).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.atpg.fault import StuckAtFault
from repro.netlist.netlist import Netlist
from repro.transform.permissible import (
    NOT_PERMISSIBLE,
    PERMISSIBLE,
    TRIAGE_CONFLICT_LIMIT,
    TriageChecker,
)
from repro.transform.substitution import IS2, OS2, Substitution

REDUNDANT = "redundant"
TESTABLE = "testable"
ABORTED = "aborted"


@dataclass
class AtpgResult:
    """Outcome of test generation for one fault."""

    status: str  # REDUNDANT, TESTABLE or ABORTED
    #: The test, one 0/1 per primary input (TESTABLE only).
    assignment: dict[str, int] = field(default_factory=dict)
    #: CDCL conflicts the solve spent.
    conflicts: int = 0

    @property
    def testable(self) -> bool:
        return self.status == TESTABLE


def generate_test(
    netlist: Netlist,
    fault: StuckAtFault,
    conflict_limit: int = TRIAGE_CONFLICT_LIMIT,
) -> AtpgResult:
    """A test for ``fault``, a proof that none exists, or an abort.

    A stale fault site raises :class:`~repro.errors.NetlistError`.  Each
    fault gets its own checker, so its own formula and solver: one solver
    shared by every fault of a netlist keeps each fault's duplicated cone
    in its database, and runs far slower than a fresh one per fault.
    """
    fault.resolve(netlist)
    move = Substitution(
        OS2 if fault.branch is None else IS2,
        fault.gate_name,
        "",
        branch=fault.branch,
        constant=fault.value,
    )
    checker = TriageChecker(
        netlist, num_patterns=0, conflict_limit=conflict_limit
    )
    verdict = checker.sat_verdict(move)
    if verdict.status == PERMISSIBLE:
        return AtpgResult(REDUNDANT, conflicts=verdict.backtracks)
    if verdict.status == NOT_PERMISSIBLE:
        return AtpgResult(
            TESTABLE, verdict.counterexample or {}, verdict.backtracks
        )
    return AtpgResult(ABORTED, conflicts=verdict.backtracks)


def classify_fault(
    netlist: Netlist,
    fault: StuckAtFault,
    conflict_limit: int = TRIAGE_CONFLICT_LIMIT,
) -> str:
    """One of :data:`REDUNDANT`, :data:`TESTABLE`, :data:`ABORTED`."""
    return generate_test(netlist, fault, conflict_limit).status


def is_redundant(
    netlist: Netlist,
    fault: StuckAtFault,
    conflict_limit: int = TRIAGE_CONFLICT_LIMIT,
) -> bool:
    """True only when the SAT stage *proves* the fault untestable."""
    return classify_fault(netlist, fault, conflict_limit) == REDUNDANT


def redundant_faults(
    netlist: Netlist,
    faults,
    conflict_limit: int = TRIAGE_CONFLICT_LIMIT,
) -> list[StuckAtFault]:
    """The subset of ``faults`` proven redundant."""
    return [
        fault
        for fault in faults
        if classify_fault(netlist, fault, conflict_limit) == REDUNDANT
    ]
