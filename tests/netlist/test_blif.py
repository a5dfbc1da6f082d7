"""Tests for BLIF I/O."""

import numpy as np
import pytest

from repro.errors import ParseError
from repro.netlist.blif import parse_blif, write_blif
from repro.netlist.simulate import SimState, exhaustive_patterns
from repro.netlist.verify import check_netlist


def outputs_equal(nl1, nl2):
    sim1 = SimState(nl1, exhaustive_patterns(nl1.input_names))
    sim2 = SimState(nl2, exhaustive_patterns(nl2.input_names))
    for po in nl1.outputs:
        if not np.array_equal(
            sim1.value(nl1.outputs[po].name), sim2.value(nl2.outputs[po].name)
        ):
            return False
    return True


class TestParse:
    def test_simple_gate(self, lib):
        text = """
.model m
.inputs a b
.outputs y
.gate nand2 a=a b=b O=y
.end
"""
        nl = parse_blif(text, lib)
        check_netlist(nl)
        assert nl.num_gates() == 1
        assert nl.gate("y").cell.name == "nand2"

    def test_out_of_order_gates(self, lib):
        text = """
.model m
.inputs a b
.outputs y
.gate inv1 a=t O=y
.gate nand2 a=a b=b O=t
.end
"""
        nl = parse_blif(text, lib)
        check_netlist(nl)
        assert nl.num_gates() == 2

    def test_continuation_lines(self, lib):
        text = ".model m\n.inputs a \\\n b\n.outputs y\n.gate nand2 a=a b=b O=y\n.end\n"
        nl = parse_blif(text, lib)
        assert nl.input_names == ["a", "b"]

    def test_constant_names(self, lib):
        text = """
.model m
.inputs a
.outputs y
.gate nand2 a=a b=k1 O=y
.names k1
1
.end
"""
        nl = parse_blif(text, lib)
        check_netlist(nl)
        tie = nl.gate("k1")
        assert tie.cell.name == "one"

    def test_buffer_names_is_alias(self, lib):
        text = """
.model m
.inputs a b
.outputs y
.gate nand2 a=a b=b O=t
.names t y
1 1
.end
"""
        nl = parse_blif(text, lib)
        check_netlist(nl)
        assert nl.outputs["y"].name == "t"

    def test_inverter_names(self, lib):
        text = """
.model m
.inputs a b
.outputs y
.gate and2 a=a b=b O=t
.names t y
0 1
.end
"""
        nl = parse_blif(text, lib)
        assert nl.outputs["y"].cell.is_inverter()

    def test_unknown_cell(self, lib):
        with pytest.raises(ParseError):
            parse_blif(".inputs a\n.outputs y\n.gate bogus a=a O=y\n", lib)

    def test_unbound_pin(self, lib):
        with pytest.raises(ParseError):
            parse_blif(".inputs a\n.outputs y\n.gate nand2 a=a O=y\n", lib)

    def test_unknown_pin(self, lib):
        with pytest.raises(ParseError):
            parse_blif(
                ".inputs a b\n.outputs y\n.gate nand2 a=a b=b z=b O=y\n", lib
            )

    def test_undriven_output(self, lib):
        with pytest.raises(ParseError):
            parse_blif(".inputs a\n.outputs y\n.end\n", lib)

    def test_latch_unsupported(self, lib):
        with pytest.raises(ParseError):
            parse_blif(".inputs a\n.outputs y\n.latch a y re clk 0\n", lib)

    def test_names_without_nets_rejected(self, lib):
        with pytest.raises(ParseError) as excinfo:
            parse_blif(".inputs a\n.outputs y\n.names\n", lib)
        assert excinfo.value.line == 3

    def test_multi_input_names_rejected(self, lib):
        with pytest.raises(ParseError):
            parse_blif(
                ".inputs a b\n.outputs y\n.names a b y\n11 1\n", lib
            )

    @pytest.mark.parametrize("body, net, line, first", [
        (".gate and2 a=a b=b O=n\n.gate or2 a=a b=b O=n\n"
         ".gate inv1 a=n O=y\n", "n", 5, 4),
        (".gate and2 a=a b=b O=n\n.gate inv1 a=n O=y\n"
         ".gate or2 a=a b=b O=n\n", "n", 6, 4),
        (".gate and2 a=a b=b O=a\n.gate inv1 a=a O=y\n", "a", 4, 2),
        (".gate and2 a=a b=b O=n\n.names a n\n1 1\n"
         ".gate inv1 a=n O=y\n", "n", 5, 4),
    ], ids=["gate-gate", "gate-reader-gate", "gate-on-input", "gate-alias"])
    def test_net_with_two_drivers_rejected(self, lib, body, net, line, first):
        # Line order must not pick the function of a doubly-driven net.
        text = ".model m\n.inputs a b\n.outputs y\n" + body + ".end\n"
        with pytest.raises(ParseError) as excinfo:
            parse_blif(text, lib)
        assert excinfo.value.line == line
        assert f"net {net!r} already driven at line {first}" in str(excinfo.value)

    def test_combinational_loop_detected(self, lib):
        text = """
.inputs a
.outputs y
.gate nand2 a=a b=y O=t
.gate inv1 a=t O=y
.end
"""
        with pytest.raises(ParseError):
            parse_blif(text, lib)


class TestRoundtrip:
    def test_figure2_roundtrip(self, figure2, lib):
        text = write_blif(figure2)
        clone = parse_blif(text, lib)
        check_netlist(clone)
        assert outputs_equal(figure2, clone)

    def test_random_roundtrip(self, random_netlist, lib):
        text = write_blif(random_netlist)
        clone = parse_blif(text, lib)
        check_netlist(clone)
        assert outputs_equal(random_netlist, clone)

    def test_model_name_preserved(self, figure2, lib):
        clone = parse_blif(write_blif(figure2), lib)
        assert clone.name == "fig2"


class TestRoundtripProperty:
    @pytest.mark.parametrize("seed", [601, 602, 603, 604])
    def test_many_random_roundtrips(self, lib, seed):
        from tests.conftest import make_random_netlist

        nl = make_random_netlist(lib, 5, 15, 3, seed=seed)
        clone = parse_blif(write_blif(nl), lib)
        check_netlist(clone)
        assert outputs_equal(nl, clone)
        # Second round-trip is textually stable.
        assert write_blif(clone) == write_blif(parse_blif(write_blif(clone), lib))
