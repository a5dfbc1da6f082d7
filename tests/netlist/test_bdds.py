"""Tests for global BDD construction from netlists."""

import pytest

from repro.logic.bdd import BddSizeError
from repro.netlist.bdds import netlist_bdds
from repro.netlist.simulate import SimState, exhaustive_patterns
from tests.conftest import make_random_netlist


class TestNetlistBdds:
    def test_matches_exhaustive_simulation(self, figure2):
        manager, nodes = netlist_bdds(figure2)
        sim = SimState(figure2, exhaustive_patterns(figure2.input_names))
        for name, node in nodes.items():
            word = sim.words(name)
            for m in range(8):
                inputs = [(m >> i) & 1 for i in range(3)]
                want = (int(word[0]) >> m) & 1
                assert manager.evaluate(node, inputs) == want, (name, m)

    @pytest.mark.parametrize("seed", [201, 202])
    def test_random_netlists(self, lib, seed):
        nl = make_random_netlist(lib, 5, 15, 3, seed=seed)
        manager, nodes = netlist_bdds(nl)
        sim = SimState(nl, exhaustive_patterns(nl.input_names))
        for name, node in nodes.items():
            word = sim.words(name)
            for m in range(32):
                inputs = [(m >> i) & 1 for i in range(5)]
                want = (int(word[m // 64]) >> (m % 64)) & 1
                assert manager.evaluate(node, inputs) == want, (name, m)

    def test_shared_manager_consistent(self, lib, figure2):
        from tests.conftest import make_figure2

        other = make_figure2(lib)
        manager, left_nodes = netlist_bdds(figure2)
        manager, right_nodes = netlist_bdds(
            other, manager=manager, input_order=list(figure2.input_names)
        )
        # Structurally identical circuits: canonical nodes coincide.
        for name in left_nodes:
            assert left_nodes[name] == right_nodes[name]

    def test_node_limit_enforced(self, lib):
        # A multiplier's middle product bits blow past a tiny node budget.
        from repro.bench.functions import multiplier_exprs
        from repro.synth.subject import SubjectGraph
        from repro.synth.mapper import technology_map, MapOptions

        bundle = multiplier_exprs("m", 4)
        graph = SubjectGraph("m")
        for pi in bundle.input_names:
            graph.add_pi(pi)
        for po, expr in bundle.outputs.items():
            graph.set_output(po, graph.add_expr(expr))
        nl = technology_map(graph, lib, MapOptions(mode="area"))
        with pytest.raises(BddSizeError):
            netlist_bdds(nl, node_limit=50)

    def test_tie_gates(self, builder, lib):
        a = builder.input("a")
        tie = builder.netlist.add_gate(lib.constant(True), [], name="one")
        g = builder.and_(a, tie, name="g")
        builder.output("o", g)
        nl = builder.build()
        manager, nodes = netlist_bdds(nl)
        assert nodes["one"] == manager.constant(True)
        assert nodes["g"] == nodes["a"]
