"""Tests for the cut-based technology mapper."""

import numpy as np
import pytest

from repro.errors import MappingError
from repro.library.genlib import parse_genlib
from repro.logic.expr import parse_expression
from repro.netlist.simulate import SimState, exhaustive_patterns
from repro.netlist.verify import check_netlist
from repro.synth.mapper import MapOptions, technology_map
from repro.synth.subject import SubjectGraph

NAND_ONLY = """
GATE inv 1.0 O=!a;       PIN * INV 1.0 999 1.0 0.5 1.0 0.5
GATE nand2 2.0 O=!(a*b); PIN * INV 1.0 999 1.0 0.5 1.0 0.5
"""


def graph_from_exprs(named_exprs, input_names):
    g = SubjectGraph("t")
    for n in input_names:
        g.add_pi(n)
    for po, text in named_exprs.items():
        g.set_output(po, g.add_expr(parse_expression(text)))
    return g


def assert_maps_correctly(graph, library, options=None):
    netlist = technology_map(graph, library, options)
    check_netlist(netlist)
    sim = SimState(netlist, exhaustive_patterns(netlist.input_names))
    values = graph.simulate(exhaustive_patterns(graph.pi_names))
    for po, node in graph.outputs.items():
        got = sim.words(netlist.outputs[po].name)
        want = values[node]
        assert np.array_equal(got, want), po
    return netlist


class TestCorrectness:
    @pytest.mark.parametrize(
        "text",
        [
            "a*b",
            "a+b",
            "!(a*b)+c",
            "a^b",
            "a^b^c",
            "(a+b)*(c+d)",
            "!(a*b+c*d)",
            "a*b*c*d",
            "!a*!b*!c",
        ],
    )
    def test_single_output(self, lib, text):
        expr = parse_expression(text)
        graph = graph_from_exprs({"y": text}, list(expr.variables()))
        assert_maps_correctly(graph, lib)

    def test_multi_output_sharing(self, lib):
        graph = graph_from_exprs(
            {"y1": "a*b+c", "y2": "!(a*b)", "y3": "a*b"},
            ["a", "b", "c"],
        )
        netlist = assert_maps_correctly(graph, lib)
        # The shared a*b cone must not be triplicated.
        assert netlist.num_gates() <= 5

    def test_constant_outputs(self, lib):
        graph = graph_from_exprs({"z": "CONST0", "o": "CONST1"}, ["a"])
        graph.add_pi  # keep at least one PI for simulation plumbing
        netlist = technology_map(graph, lib)
        check_netlist(netlist)
        assert netlist.outputs["z"].cell.name == "zero"
        assert netlist.outputs["o"].cell.name == "one"

    def test_po_alias_of_pi(self, lib):
        graph = SubjectGraph("t")
        a = graph.add_pi("a")
        graph.set_output("y", a)
        netlist = technology_map(graph, lib)
        check_netlist(netlist)
        assert netlist.outputs["y"].name == "a"

    def test_inverted_po(self, lib):
        graph = graph_from_exprs({"y": "!a"}, ["a"])
        netlist = assert_maps_correctly(graph, lib)
        assert netlist.num_gates() == 1


class TestNandOnlyLibrary:
    def test_phase_bridging_covers(self):
        library = parse_genlib(NAND_ONLY, "nand-only")
        graph = graph_from_exprs(
            {"y": "a*b+c", "z": "a+b"}, ["a", "b", "c"]
        )
        netlist = assert_maps_correctly(graph, library)
        used = {g.cell.name for g in netlist.logic_gates()}
        assert used <= {"inv", "nand2"}


class TestCostModes:
    def test_area_mode_smaller_or_equal_area(self, lib):
        graph = graph_from_exprs(
            {"y": "a*b+c*d", "z": "(a+b)*(c+d)"}, ["a", "b", "c", "d"]
        )
        area_nl = technology_map(
            graph, lib, MapOptions(mode="area"), name="area"
        )
        power_nl = technology_map(
            graph, lib, MapOptions(mode="power"), name="power"
        )
        check_netlist(area_nl)
        check_netlist(power_nl)
        assert area_nl.total_area() <= power_nl.total_area() + 1e-9

    def test_power_mode_correct(self, lib):
        graph = graph_from_exprs(
            {"y": "a*b+c*d+!a*!d"}, ["a", "b", "c", "d"]
        )
        assert_maps_correctly(graph, lib, MapOptions(mode="power"))

    def test_bad_mode(self, lib):
        graph = graph_from_exprs({"y": "a*b"}, ["a", "b"])
        with pytest.raises(MappingError):
            technology_map(graph, lib, MapOptions(mode="energy"))

    def test_delay_mode_correct(self, lib):
        graph = graph_from_exprs(
            {"y": "a*b*c*d+!a*!c", "z": "a^b^c"}, ["a", "b", "c", "d"]
        )
        assert_maps_correctly(graph, lib, MapOptions(mode="delay"))

    def test_delay_mode_never_slower(self, lib):
        from repro.timing.analysis import TimingAnalysis

        graph = graph_from_exprs(
            {"y": "a*b*c*d*e+!a*!c", "z": "(a+b)*(c+d)*e"},
            ["a", "b", "c", "d", "e"],
        )
        fast = technology_map(graph, lib, MapOptions(mode="delay"), name="d")
        small = technology_map(graph, lib, MapOptions(mode="area"), name="a")
        # Delay-driven mapping should not lose to area-driven mapping by
        # more than load-estimation noise.
        assert (
            TimingAnalysis(fast).circuit_delay
            <= TimingAnalysis(small).circuit_delay * 1.15
        )


class TestComplexCells:
    def test_aoi_used_when_cheaper(self, lib):
        # !(a*b + c) is exactly aoi21.
        graph = graph_from_exprs({"y": "!(a*b+c)"}, ["a", "b", "c"])
        netlist = assert_maps_correctly(graph, lib)
        names = {g.cell.name for g in netlist.logic_gates()}
        assert "aoi21" in names
        assert netlist.num_gates() == 1

    def test_xor_cell_used(self, lib):
        graph = graph_from_exprs({"y": "a^b"}, ["a", "b"])
        netlist = assert_maps_correctly(graph, lib)
        assert {g.cell.name for g in netlist.logic_gates()} == {"xor2"}
