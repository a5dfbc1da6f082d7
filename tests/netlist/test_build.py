"""Tests for the NetlistBuilder convenience layer."""

import pytest

from repro.errors import LibraryError
from repro.logic.truthtable import TruthTable
from repro.netlist.simulate import SimState, exhaustive_patterns
from repro.netlist.verify import check_netlist


class TestBuilder:
    def test_two_input_helpers(self, builder):
        a, b = builder.inputs("a", "b")
        gates = {
            "and": builder.and_(a, b),
            "or": builder.or_(a, b),
            "nand": builder.nand_(a, b),
            "nor": builder.nor_(a, b),
            "xor": builder.xor_(a, b),
            "xnor": builder.xnor_(a, b),
        }
        for i, (name, gate) in enumerate(gates.items()):
            builder.output(f"o_{name}", gate)
        nl = builder.build()
        check_netlist(nl)
        sim = SimState(nl, exhaustive_patterns(["a", "b"]))
        expect = {
            "and": lambda x, y: x & y,
            "or": lambda x, y: x | y,
            "nand": lambda x, y: 1 - (x & y),
            "nor": lambda x, y: 1 - (x | y),
            "xor": lambda x, y: x ^ y,
            "xnor": lambda x, y: 1 - (x ^ y),
        }
        for name, gate in gates.items():
            word = sim.words(gate.name)
            for m in range(4):
                x, y = m & 1, (m >> 1) & 1
                assert (int(word[0]) >> m) & 1 == expect[name](x, y), name

    def test_not(self, builder):
        a = builder.input("a")
        g = builder.not_(a)
        builder.output("o", g)
        nl = builder.build()
        sim = SimState(nl, exhaustive_patterns(["a"]))
        assert sim.signal_probability(g.name) == 0.5

    def test_cell_gate_by_name(self, builder):
        a, b, c = builder.inputs("a", "b", "c")
        g = builder.cell_gate("aoi21", a, b, c)
        builder.output("o", g)
        assert g.cell.name == "aoi21"

    def test_missing_function_raises(self, builder):
        a, b = builder.inputs("a", "b")
        with pytest.raises(LibraryError):
            builder.gate(TruthTable(2, 0b0010), a, b)  # a & !b: no such cell

    def test_buffer_matches_cell(self, builder):
        a = builder.input("a")
        g = builder.gate(TruthTable(1, 0b10), a)
        assert g.cell.is_buffer()

    def test_trees(self, builder):
        xs = builder.inputs(*[f"x{i}" for i in range(5)])
        g_and = builder.and_tree(list(xs))
        g_or = builder.or_tree(list(xs))
        g_xor = builder.xor_tree(list(xs))
        for n, g in [("a", g_and), ("o", g_or), ("x", g_xor)]:
            builder.output(n, g)
        nl = builder.build()
        sim = SimState(nl, exhaustive_patterns(nl.input_names))
        assert sim.signal_probability(g_and.name) == pytest.approx(1 / 32)
        assert sim.signal_probability(g_or.name) == pytest.approx(31 / 32)
        assert sim.signal_probability(g_xor.name) == pytest.approx(0.5)

    def test_empty_tree_rejected(self, builder):
        with pytest.raises(LibraryError):
            builder.and_tree([])
