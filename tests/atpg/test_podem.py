"""Tests for the PODEM engine."""

import pytest

from repro.atpg.fault import StuckAtFault, all_faults
from repro.atpg.faultsim import detected_mask
from repro.atpg.podem import Podem
from repro.errors import AtpgAbort
from repro.netlist.simulate import SimState, exhaustive_patterns, popcount
from tests.conftest import make_random_netlist


def verdict_matches_brute_force(netlist, fault):
    sim = SimState(netlist, exhaustive_patterns(netlist.input_names))
    testable_ref = popcount(detected_mask(sim, fault)) > 0
    result = Podem(netlist, fault).run()
    assert result.testable == testable_ref, str(fault)
    if result.testable:
        # The produced assignment must actually detect the fault: complete
        # with zeros and check against the mask.
        minterm = 0
        for index, name in enumerate(netlist.input_names):
            if result.assignment.get(name, 0):
                minterm |= 1 << index
        mask = detected_mask(sim, fault)
        assert (int(mask[minterm // 64]) >> (minterm % 64)) & 1, str(fault)


class TestPodemBasic:
    def test_and_sa0(self, builder):
        a, b = builder.inputs("a", "b")
        f = builder.and_(a, b, name="f")
        builder.output("o", f)
        nl = builder.build()
        result = Podem(nl, StuckAtFault("f", 0)).run()
        assert result.testable
        assert result.assignment == {"a": 1, "b": 1}

    def test_input_fault_needs_propagation(self, builder):
        a, b = builder.inputs("a", "b")
        f = builder.and_(a, b, name="f")
        builder.output("o", f)
        nl = builder.build()
        result = Podem(nl, StuckAtFault("a", 0)).run()
        assert result.testable
        assert result.assignment["a"] == 1
        assert result.assignment["b"] == 1  # non-controlling side value

    def test_redundant_fault_unsat(self, builder):
        a, b = builder.inputs("a", "b")
        g = builder.and_(a, b, name="g")
        f = builder.or_(a, g, name="f")
        builder.output("o", f)
        nl = builder.build()
        assert not Podem(nl, StuckAtFault("g", 0)).run().testable

    def test_branch_fault(self, figure2):
        d = figure2.gate("d")
        pin = [i for i, g in enumerate(d.fanins) if g.name == "a"][0]
        fault = StuckAtFault("a", 0, branch=("d", pin))
        result = Podem(figure2, fault).run()
        assert result.testable
        # a=1 activates; b=1 needed to observe through f.
        assert result.assignment["a"] == 1
        assert result.assignment["b"] == 1

    def test_unobservable_gate(self, builder):
        # A gate with no path to any output is untestable.
        a, b = builder.inputs("a", "b")
        g = builder.and_(a, b, name="g")
        dead = builder.not_(g, name="dead")
        builder.output("o", g)
        nl = builder.build()
        assert not Podem(nl, StuckAtFault("dead", 0)).run().testable

    def test_abort_raises(self, builder):
        # Proving redundancy requires exhausting the search, which needs
        # backtracks; a zero budget must abort.
        a, b = builder.inputs("a", "b")
        g = builder.and_(a, b, name="g")
        f = builder.or_(a, g, name="f")
        builder.output("o", f)
        nl = builder.build()
        with pytest.raises(AtpgAbort):
            Podem(nl, StuckAtFault("g", 0), backtrack_limit=0).run()


class TestPodemExhaustiveCrossCheck:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_random_netlists(self, lib, seed):
        nl = make_random_netlist(lib, 5, 14, 3, seed=seed)
        for fault in all_faults(nl):
            verdict_matches_brute_force(nl, fault)

    def test_figure2_all_faults(self, figure2):
        for fault in all_faults(figure2):
            verdict_matches_brute_force(figure2, fault)

    def test_xor_heavy_netlist(self, builder):
        xs = builder.inputs(*[f"x{i}" for i in range(4)])
        g = builder.xor_tree(list(xs))
        builder.output("o", g)
        nl = builder.build()
        for fault in all_faults(nl):
            verdict_matches_brute_force(nl, fault)
