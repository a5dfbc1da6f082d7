"""Tests for the equivalence oracle."""

import pytest

from repro.equiv.checker import EQUAL, NOT_EQUAL, UNKNOWN, check_equivalent
from repro.netlist.simulate import SimState
from tests.conftest import make_figure2, make_random_netlist


def evaluate_outputs(netlist, assignment):
    sim_inputs = {}
    import numpy as np

    for name in netlist.input_names:
        value = assignment[name]
        sim_inputs[name] = np.full(
            1, np.uint64(0xFFFFFFFFFFFFFFFF if value else 0), dtype=np.uint64
        )
    sim = SimState(netlist, sim_inputs)
    return {po: int(sim.words(d.name)[0]) & 1 for po, d in netlist.outputs.items()}


class TestCheckEquivalent:
    def test_identical_copies(self, lib, figure2):
        result = check_equivalent(figure2, make_figure2(lib))
        assert result.status == EQUAL
        assert result.equal

    def test_self_copy(self, random_netlist):
        result = check_equivalent(random_netlist, random_netlist.copy("c"))
        assert result.equal

    def test_functionally_equal_different_structure(self, lib, builder):
        # a & b  vs  !(!(a & b)) via nand+inv
        a, b = builder.inputs("a", "b")
        builder.output("o", builder.and_(a, b))
        left = builder.build()
        from repro.netlist.build import NetlistBuilder

        b2 = NetlistBuilder(lib)
        a2, bb2 = b2.inputs("a", "b")
        n = b2.nand_(a2, bb2)
        b2.output("o", b2.not_(n))
        result = check_equivalent(left, b2.build())
        assert result.equal

    def test_not_equal_has_valid_counterexample(self, lib, builder):
        a, b = builder.inputs("a", "b")
        builder.output("o", builder.and_(a, b))
        left = builder.build()
        from repro.netlist.build import NetlistBuilder

        b2 = NetlistBuilder(lib)
        a2, bb2 = b2.inputs("a", "b")
        b2.output("o", b2.or_(a2, bb2))
        right = b2.build()
        result = check_equivalent(left, right)
        assert result.status == NOT_EQUAL
        assert result.counterexample is not None
        assert evaluate_outputs(left, result.counterexample) != evaluate_outputs(
            right, result.counterexample
        )

    def test_atpg_only_path(self, lib, builder):
        # Disable the simulation and BDD stages; the SAT miter (ATPG in
        # its SAT form) must find the difference.
        a, b = builder.inputs("a", "b")
        builder.output("o", builder.and_(a, b))
        left = builder.build()
        from repro.netlist.build import NetlistBuilder

        b2 = NetlistBuilder(lib)
        a2, bb2 = b2.inputs("a", "b")
        b2.output("o", b2.xor_(a2, bb2))
        right = b2.build()
        result = check_equivalent(
            left, right, num_patterns=0, bdd_node_limit=0
        )
        assert result.status == NOT_EQUAL
        assert result.stage == "sat"
        assert evaluate_outputs(left, result.counterexample) != evaluate_outputs(
            right, result.counterexample
        )

    def test_unknown_on_zero_budget(self, lib, figure2):
        # Equal circuits with no SAT budget and no BDDs: cannot prove,
        # must say so.
        result = check_equivalent(
            figure2, make_figure2(lib), conflict_limit=0, bdd_node_limit=0
        )
        assert result.status in (EQUAL, UNKNOWN)
        # With equal circuits the simulation stage finds nothing and the
        # solver proves UNSAT only if it needs no conflict past the root;
        # a zero budget must never yield NOT_EQUAL.
        assert result.status != NOT_EQUAL

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_random_self_equivalence(self, lib, seed):
        nl = make_random_netlist(lib, 5, 15, 3, seed=seed)
        assert check_equivalent(nl, nl.copy("c")).equal

    @pytest.mark.parametrize("seed", [31, 32])
    def test_random_mutation_detected(self, lib, seed):
        nl = make_random_netlist(lib, 5, 15, 3, seed=seed)
        mutated = nl.copy("m")
        # Flip one gate's cell: and <-> or (changes the function somewhere
        # visible, usually).
        for gate in mutated.logic_gates():
            if gate.cell.name == "and2" and gate.po_names:
                gate.cell = mutated.library["or2"]
                break
        else:
            # Fall back: invert one PO by inserting an inverter.
            po, driver = next(iter(mutated.outputs.items()))
            inv = mutated.add_gate(
                mutated.library.inverter(), [driver], name="mut"
            )
            mutated.set_output(po, inv)
        result = check_equivalent(nl, mutated)
        assert result.status == NOT_EQUAL


class TestBddFallback:
    def build_adder_pair(self, lib, width=6, mutate=False):
        """Two ripple adders; optionally one output inverted."""
        from repro.bench.functions import adder_exprs
        from repro.synth.subject import SubjectGraph
        from repro.synth.mapper import technology_map, MapOptions

        bundle = adder_exprs("add", width, carry_in=True)
        graph = SubjectGraph("add")
        for pi in bundle.input_names:
            graph.add_pi(pi)
        for po, expr in bundle.outputs.items():
            graph.set_output(po, graph.add_expr(expr))
        nl = technology_map(graph, lib, MapOptions(mode="area"))
        other = nl.copy("other")
        if mutate:
            po, driver = next(iter(other.outputs.items()))
            inv = other.add_gate(other.library.inverter(), [driver], name="mut")
            other.set_output(po, inv)
        return nl, other

    def test_bdd_proves_adder_equivalence(self, lib):
        # The BDD stage decides before SAT spends a conflict; adders have
        # linear BDDs.
        left, right = self.build_adder_pair(lib)
        result = check_equivalent(right, left, conflict_limit=0)
        assert result.equal
        assert result.stage == "bdd"

    def test_bdd_counterexample_is_valid(self, lib):
        left, right = self.build_adder_pair(lib, mutate=True)
        result = check_equivalent(
            left, right, num_patterns=0, conflict_limit=0
        )
        assert result.status == NOT_EQUAL
        # Without simulation the BDD descent hands back the witness.
        assert result.stage == "bdd"
        assert evaluate_outputs(left, result.counterexample) != evaluate_outputs(
            right, result.counterexample
        )

    def test_fallback_disabled_gives_unknown(self, lib):
        left, right = self.build_adder_pair(lib)
        result = check_equivalent(
            right, left, conflict_limit=0, bdd_node_limit=0
        )
        assert result.status == UNKNOWN
        assert result.stage == "sat"
