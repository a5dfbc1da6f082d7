"""Tests for the logic-BLIF (.names) front end."""

import numpy as np
import pytest

from repro.errors import ParseError
from repro.netlist.simulate import SimState, exhaustive_patterns
from repro.netlist.verify import check_netlist
from repro.synth.blif_logic import (
    parse_logic_blif,
    network_to_subject_graph,
    synthesize_logic_blif,
)

FULL_ADDER = """
.model fa
.inputs a b cin
.outputs sum cout
.names a b t1
10 1
01 1
.names t1 cin sum
10 1
01 1
.names a b t2
11 1
.names t1 cin t3
11 1
.names t2 t3 cout
00 0
.end
"""


class TestParse:
    def test_full_adder_structure(self):
        network = parse_logic_blif(FULL_ADDER)
        assert network.name == "fa"
        assert network.inputs == ["a", "b", "cin"]
        assert set(network.nodes) == {"t1", "t2", "t3", "sum", "cout"}

    def test_off_set_rows_complemented(self):
        network = parse_logic_blif(FULL_ADDER)
        cover = network.nodes["cout"].cover  # OR via OFF-set row "00 0"
        assert cover.evaluate([0, 0]) == 0
        assert cover.evaluate([1, 0]) == 1
        assert cover.evaluate([0, 1]) == 1

    def test_constants(self):
        text = ".inputs a\n.outputs k1 k0\n.names k1\n1\n.names k0\n.end\n"
        network = parse_logic_blif(text)
        assert network.nodes["k1"].cover.evaluate([]) == 1
        assert network.nodes["k0"].cover.is_empty()

    def test_mixed_polarity_rejected(self):
        with pytest.raises(ParseError):
            parse_logic_blif(
                ".inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end\n"
            )

    def test_undefined_fanin(self):
        with pytest.raises(ParseError):
            parse_logic_blif(
                ".inputs a\n.outputs y\n.names a ghost y\n11 1\n.end\n"
            )

    def test_cycle_detected(self):
        text = (
            ".inputs a\n.outputs y\n"
            ".names a y t\n11 1\n.names t y\n1 1\n.end\n"
        )
        with pytest.raises(ParseError):
            parse_logic_blif(text)

    def test_gate_rejected(self):
        with pytest.raises(ParseError):
            parse_logic_blif(
                ".inputs a\n.outputs y\n.gate inv1 a=a O=y\n.end\n"
            )

    def test_missing_outputs(self):
        with pytest.raises(ParseError):
            parse_logic_blif(".inputs a\n.names a y\n1 1\n.end\n")


class TestSynthesis:
    def test_full_adder_maps_correctly(self, lib):
        netlist = synthesize_logic_blif(FULL_ADDER, lib)
        check_netlist(netlist)
        sim = SimState(netlist, exhaustive_patterns(netlist.input_names))
        s = sim.words(netlist.outputs["sum"].name)
        c = sim.words(netlist.outputs["cout"].name)
        for m in range(8):
            a, b, cin = m & 1, (m >> 1) & 1, (m >> 2) & 1
            total = a + b + cin
            assert ((int(s[0]) >> m) & 1) == total % 2, m
            assert ((int(c[0]) >> m) & 1) == total // 2, m

    def test_po_driven_by_pi(self, lib):
        text = ".inputs a b\n.outputs y a_out\n.names a b y\n11 1\n.names a a_out\n1 1\n.end\n"
        netlist = synthesize_logic_blif(text, lib)
        check_netlist(netlist)
        assert netlist.outputs["a_out"].name == "a"

    def test_internal_sharing(self, lib):
        # t feeds both outputs: the subject graph must share it.
        text = (
            ".inputs a b c\n.outputs y z\n"
            ".names a b t\n11 1\n"
            ".names t c y\n11 1\n"
            ".names t c z\n10 1\n.end\n"
        )
        network = parse_logic_blif(text)
        graph = network_to_subject_graph(network)
        netlist = synthesize_logic_blif(text, lib)
        check_netlist(netlist)
        sim = SimState(netlist, exhaustive_patterns(netlist.input_names))
        for m in range(8):
            a, b, c = m & 1, (m >> 1) & 1, (m >> 2) & 1
            t = a & b
            y = (int(sim.words(netlist.outputs["y"].name)[0]) >> m) & 1
            z = (int(sim.words(netlist.outputs["z"].name)[0]) >> m) & 1
            assert y == (t & c)
            assert z == (t & (1 - c))
