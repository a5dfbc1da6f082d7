"""Tests for stuck-at test generation by the triage SAT stage."""

import pytest

from repro.atpg.fault import StuckAtFault, all_faults
from repro.atpg.faultsim import detected_mask
from repro.atpg.redundancy import ABORTED, REDUNDANT, TESTABLE, generate_test
from repro.errors import NetlistError
from repro.fuzz.generator import GeneratorConfig, random_mapped_netlist
from repro.netlist.simulate import SimState, exhaustive_patterns, popcount
from tests.conftest import make_figure2, make_random_netlist


def check_against_exhaustive(netlist) -> tuple[int, int]:
    """Cross-check every fault against exhaustive fault simulation.

    Each verdict must match whether some input vector detects the fault,
    and each returned test must be such a vector.  Returns the number of
    faults and of redundant ones.
    """
    sim = SimState(netlist, exhaustive_patterns(netlist.input_names))
    faults = all_faults(netlist)
    redundant = 0
    for fault in faults:
        mask = detected_mask(sim, fault)
        result = generate_test(netlist, fault)
        expected = TESTABLE if popcount(mask) else REDUNDANT
        assert result.status == expected, str(fault)
        if not result.testable:
            redundant += 1
            continue
        minterm = 0
        for index, name in enumerate(netlist.input_names):
            if result.assignment[name]:
                minterm |= 1 << index
        assert (int(mask[minterm // 64]) >> (minterm % 64)) & 1, str(fault)
    return len(faults), redundant


def absorbed_circuit(builder):
    """f = a OR (a AND b): the AND gate's sa0 is redundant."""
    a, b = builder.inputs("a", "b")
    g = builder.and_(a, b, name="g")
    f = builder.or_(a, g, name="f")
    builder.output("o", f)
    return builder.build()


class TestGenerateBasic:
    def test_and_sa0(self, builder):
        a, b = builder.inputs("a", "b")
        f = builder.and_(a, b, name="f")
        builder.output("o", f)
        nl = builder.build()
        result = generate_test(nl, StuckAtFault("f", 0))
        assert result.testable
        assert result.assignment == {"a": 1, "b": 1}

    def test_input_fault_needs_propagation(self, builder):
        a, b = builder.inputs("a", "b")
        f = builder.and_(a, b, name="f")
        builder.output("o", f)
        nl = builder.build()
        result = generate_test(nl, StuckAtFault("a", 0))
        assert result.testable
        assert result.assignment["a"] == 1
        assert result.assignment["b"] == 1  # non-controlling side value

    def test_redundant_fault_unsat(self, builder):
        nl = absorbed_circuit(builder)
        result = generate_test(nl, StuckAtFault("g", 0))
        assert result.status == REDUNDANT
        assert result.assignment == {}

    def test_branch_fault(self, figure2):
        d = figure2.gate("d")
        pin = [i for i, g in enumerate(d.fanins) if g.name == "a"][0]
        fault = StuckAtFault("a", 0, branch=("d", pin))
        result = generate_test(figure2, fault)
        assert result.testable
        # a=1 activates; b=1 needed to observe through f.
        assert result.assignment["a"] == 1
        assert result.assignment["b"] == 1

    def test_unobservable_gate(self, builder):
        # A gate with no path to any output is untestable.
        a, b = builder.inputs("a", "b")
        g = builder.and_(a, b, name="g")
        builder.not_(g, name="dead")
        builder.output("o", g)
        nl = builder.build()
        assert generate_test(nl, StuckAtFault("dead", 0)).status == REDUNDANT

    def test_zero_budget_aborts(self, builder):
        # Proving redundancy needs a conflict; a zero budget must abort.
        nl = absorbed_circuit(builder)
        result = generate_test(nl, StuckAtFault("g", 0), conflict_limit=0)
        assert result.status == ABORTED
        assert not result.testable

    def test_stale_site_raises(self, figure2):
        with pytest.raises(NetlistError):
            generate_test(figure2, StuckAtFault("a", 0, branch=("f", 0)))


class TestExhaustiveCrossCheck:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_random_netlists(self, lib, seed):
        check_against_exhaustive(make_random_netlist(lib, 5, 14, 3, seed=seed))

    def test_figure2_all_faults(self, figure2):
        check_against_exhaustive(figure2)

    def test_xor_heavy_netlist(self, builder):
        xs = builder.inputs(*[f"x{i}" for i in range(4)])
        g = builder.xor_tree(list(xs))
        builder.output("o", g)
        check_against_exhaustive(builder.build())

    def test_sweep_of_61_netlists(self, lib):
        # 40 random DAGs, 20 reconvergent generator netlists (the shape
        # that makes faults redundant) and Figure 2.
        netlists = [
            make_random_netlist(lib, 5, 14, 3, seed=seed)
            for seed in range(1, 41)
        ]
        netlists += [
            random_mapped_netlist(
                GeneratorConfig(seed=seed, shape="reconvergent"), lib
            )
            for seed in range(20)
        ]
        netlists.append(make_figure2(lib))
        totals = [check_against_exhaustive(nl) for nl in netlists]
        assert sum(faults for faults, _ in totals) == 3762
        assert sum(redundant for _, redundant in totals) == 1022
