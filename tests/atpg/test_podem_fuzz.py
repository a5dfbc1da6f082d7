"""Stuck-at test generation's redundant-fault and abort paths on
generator-produced circuits.

Reconvergent fanout is what makes faults redundant (the diamond masks the
fault effect) and what makes proving them hard; the fuzz generator's
``reconvergent`` shape produces both on demand.  Every verdict of the
triage SAT stage is cross-checked against exhaustive fault simulation,
and the optimizer-facing contract — an aborted check is a rejected
candidate — is pinned down explicitly.
"""

from __future__ import annotations

from repro.atpg.fault import StuckAtFault, all_faults
from repro.atpg.faultsim import detected_mask, undetected_faults
from repro.atpg.redundancy import classify_fault, generate_test, is_redundant
from repro.fuzz.generator import GeneratorConfig, random_mapped_netlist
from repro.netlist.build import NetlistBuilder
from repro.netlist.simulate import SimState, exhaustive_patterns
from repro.transform.permissible import (
    ABORTED,
    NOT_PERMISSIBLE,
    PERMISSIBLE,
    check_candidate,
)
from repro.transform.substitution import OS2, Substitution


def test_known_redundant_fault_proved_untestable(lib):
    # z = a AND (a OR b): with a=1 the OR is 1 regardless of b, with a=0
    # the AND masks it — so "b stuck-at-1" is a classic redundancy.
    b = NetlistBuilder(lib, "redundant")
    a, bb = b.inputs("a", "b")
    o = b.or_(a, bb, name="o")
    b.output("z", b.and_(a, o, name="z_g"))
    netlist = b.build()

    fault = StuckAtFault("b", 1)
    result = generate_test(netlist, fault, conflict_limit=10_000)
    assert not result.testable
    assert is_redundant(netlist, fault)
    # Exhaustive fault simulation agrees: no vector ever detects it.
    sim = SimState(netlist, exhaustive_patterns(netlist.input_names))
    assert int(detected_mask(sim, fault).sum()) == 0


def test_sat_verdicts_match_exhaustive_fault_simulation(lib):
    netlist = random_mapped_netlist(
        GeneratorConfig(seed=0, shape="reconvergent"), lib
    )
    faults = all_faults(netlist)
    sim = SimState(netlist, exhaustive_patterns(netlist.input_names))
    undetectable = set(map(str, undetected_faults(sim, faults)))

    redundant = []
    for fault in faults:
        verdict = classify_fault(netlist, fault, conflict_limit=20_000)
        assert verdict in ("testable", "redundant")
        if verdict == "redundant":
            redundant.append(fault)
            assert str(fault) in undetectable, (
                f"SAT called {fault} redundant but simulation detects it"
            )
        else:
            assert str(fault) not in undetectable, (
                f"SAT called {fault} testable but no vector detects it"
            )
    assert redundant, "the reconvergent shape must produce redundancies"


def test_tiny_budget_aborts_and_classifies_as_aborted(lib):
    netlist = random_mapped_netlist(
        GeneratorConfig(seed=0, shape="reconvergent"), lib
    )
    aborted = []
    for fault in all_faults(netlist):
        if classify_fault(netlist, fault, conflict_limit=1) == "aborted":
            aborted.append(fault)
    assert aborted, "a one-conflict budget must abort on reconvergence"
    result = generate_test(netlist, aborted[0], conflict_limit=1)
    assert result.status == "aborted" and not result.testable
    assert not is_redundant(netlist, aborted[0], conflict_limit=1)


def _twin_xor_chains(lib):
    """Two structurally identical 8-input XOR chains: substituting one
    stem by the other is permissible, but *proving* it is the ATPG
    worst case (the miter is a parity function)."""
    b = NetlistBuilder(lib, "twinxor")
    xs = [b.input(f"x{i}") for i in range(8)]

    def chain(tag):
        acc = b.xor_(xs[0], xs[1], name=f"{tag}0")
        for i in range(2, 8):
            acc = b.xor_(acc, xs[i], name=f"{tag}{i - 1}")
        return acc

    first, second = chain("a"), chain("b")
    b.output("z0", b.and_(first, xs[0], name="mix"))
    b.output("z1", second)
    return b.build()


def test_check_candidate_abort_is_a_reject(lib):
    netlist = _twin_xor_chains(lib)
    sub = Substitution(OS2, "a6", "b6")

    # Tiny search budget with the BDD stage disabled: the SAT stage
    # aborts, and the abort maps to "not allowed" (paper §3.5: an aborted
    # check must never be applied).
    result = check_candidate(
        netlist, sub, conflict_limit=5, bdd_node_limit=0
    )
    assert result.status == ABORTED
    assert not result.allowed

    # With a real budget the same candidate is proven permissible.
    full = check_candidate(netlist, sub, conflict_limit=20_000)
    assert full.status == PERMISSIBLE and full.allowed


def test_check_candidate_rejects_with_counterexample(lib):
    netlist = _twin_xor_chains(lib)
    # a6 <- a0 changes the function: simulation disproves it immediately.
    result = check_candidate(netlist, Substitution(OS2, "a6", "a0"))
    assert result.status == NOT_PERMISSIBLE
    assert not result.allowed
    assert result.counterexample is not None
