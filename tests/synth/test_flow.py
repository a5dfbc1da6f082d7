"""Tests for the end-to-end synthesis flow."""

import numpy as np
import pytest

from repro.errors import LogicError
from repro.logic.sop import Cover, Cube
from repro.netlist.simulate import SimState, exhaustive_patterns
from repro.netlist.verify import check_netlist
from repro.synth.flow import SynthesisOptions, build_subject_graph, synthesize
from repro.synth.mapper import MapOptions


def minterm_cover(nvars, predicate):
    return Cover(
        nvars,
        [
            Cube.from_minterm(nvars, m)
            for m in range(1 << nvars)
            if predicate(m)
        ],
    )


def assert_synthesis_correct(input_names, outputs, lib, dc=None, options=None):
    netlist = synthesize(input_names, outputs, lib, dont_cares=dc, options=options)
    check_netlist(netlist)
    sim = SimState(netlist, exhaustive_patterns(input_names))
    n = len(input_names)
    for po, cover in outputs.items():
        word = sim.words(netlist.outputs[po].name)
        dc_cover = (dc or {}).get(po)
        for m in range(1 << n):
            got = (int(word[m // 64]) >> (m % 64)) & 1
            if dc_cover is not None and dc_cover.contains_minterm(m):
                continue  # free choice
            assert got == int(cover.contains_minterm(m)), (po, m)
    return netlist


class TestSynthesize:
    def test_full_adder(self, lib):
        maj = minterm_cover(3, lambda m: bin(m).count("1") >= 2)
        xor3 = minterm_cover(3, lambda m: bin(m).count("1") % 2 == 1)
        nl = assert_synthesis_correct(
            ["a", "b", "c"], {"carry": maj, "sum": xor3}, lib
        )
        assert nl.num_gates() < 15

    def test_width_mismatch(self, lib):
        with pytest.raises(LogicError):
            synthesize(["a"], {"y": Cover(2, [Cube.universe(2)])}, lib)

    def test_with_dont_cares(self, lib):
        on = Cover.from_strings(["11"])
        dc = {"y": Cover.from_strings(["10"])}
        assert_synthesis_correct(["a", "b"], {"y": on}, lib, dc=dc)

    def test_constant_outputs(self, lib):
        nl = synthesize(
            ["a"],
            {"zero": Cover(1, []), "one": Cover.constant(1, True)},
            lib,
        )
        check_netlist(nl)

    def test_no_minimize_option(self, lib):
        on = minterm_cover(3, lambda m: bin(m).count("1") >= 2)
        options = SynthesisOptions(minimize=False)
        assert_synthesis_correct(["a", "b", "c"], {"y": on}, lib, options=options)

    def test_power_mapping_mode(self, lib):
        on = minterm_cover(4, lambda m: bin(m).count("1") in (1, 3))
        options = SynthesisOptions(map_options=MapOptions(mode="power"))
        assert_synthesis_correct(
            ["a", "b", "c", "d"], {"y": on}, lib, options=options
        )

    def test_deterministic(self, lib):
        on = minterm_cover(4, lambda m: (m * 7) % 3 == 1)
        nl1 = synthesize(["a", "b", "c", "d"], {"y": on}, lib)
        nl2 = synthesize(["a", "b", "c", "d"], {"y": on}, lib)
        from repro.netlist.blif import write_blif

        assert write_blif(nl1) == write_blif(nl2)


class TestBuildSubjectGraph:
    def test_sharing_across_outputs(self, lib):
        on = Cover.from_strings(["11-"])
        graph = build_subject_graph(
            ["a", "b", "c"], {"y1": on, "y2": on}
        )
        assert graph.outputs["y1"] == graph.outputs["y2"]
