"""Tests for the benchmark registry."""

import numpy as np
import pytest

from repro.bench.suite import (
    DEFAULT_SUITE,
    SUITE,
    TRADEOFF_SUITE,
    available_benchmarks,
    build_benchmark,
)
from repro.errors import ReproError
from repro.netlist.blif import write_blif
from repro.netlist.simulate import SimState, random_patterns
from repro.netlist.verify import check_netlist


class TestRegistry:
    def test_default_subset_of_registry(self):
        assert set(DEFAULT_SUITE) <= set(SUITE)
        assert set(TRADEOFF_SUITE) <= set(SUITE)

    def test_available(self):
        names = available_benchmarks()
        assert "comp" in names and "9sym" in names

    def test_unknown_benchmark(self, lib):
        with pytest.raises(ReproError):
            build_benchmark("not-a-circuit", lib)

    def test_paper_names_recorded(self):
        for spec in SUITE.values():
            assert spec.paper_name
            assert spec.description


class TestBuilds:
    @pytest.mark.parametrize("name", list(DEFAULT_SUITE))
    def test_default_suite_builds(self, lib, name):
        netlist = build_benchmark(name, lib)
        check_netlist(netlist)
        assert netlist.num_gates() > 0
        assert netlist.outputs

    def test_deterministic_build(self, lib):
        a = build_benchmark("clip", lib)
        b = build_benchmark("clip", lib)
        assert write_blif(a) == write_blif(b)

    def test_map_mode_changes_result(self, lib):
        power = build_benchmark("rd84", lib, map_mode="power")
        area = build_benchmark("rd84", lib, map_mode="area")
        assert area.total_area() <= power.total_area() + 1e-9

    def test_sym_variants_differ_structurally(self, lib):
        base = build_benchmark("9sym", lib)
        variant = build_benchmark("9symml", lib)
        assert write_blif(base) != write_blif(variant)

    def test_sym_variants_equivalent(self, lib):
        base = build_benchmark("9sym", lib)
        variant = build_benchmark("9symml", lib)
        patterns = random_patterns(base.input_names, 512, seed=5)
        sim_a = SimState(base, patterns)
        sim_b = SimState(variant, patterns)
        out_a = sim_a.words(base.outputs["f"].name)
        out_b = sim_b.words(variant.outputs["f"].name)
        assert np.array_equal(out_a, out_b)

    def test_comp_functional_spot_check(self, lib):
        netlist = build_benchmark("comp", lib)
        patterns = random_patterns(netlist.input_names, 256, seed=9)
        sim = SimState(netlist, patterns)
        gt = sim.words(netlist.outputs["gt"].name)
        lt = sim.words(netlist.outputs["lt"].name)
        eq = sim.words(netlist.outputs["eq"].name)
        for p in range(64):
            a = sum(
                ((int(patterns[f"a{i}"][0]) >> p) & 1) << i for i in range(8)
            )
            b = sum(
                ((int(patterns[f"b{i}"][0]) >> p) & 1) << i for i in range(8)
            )
            assert ((int(gt[0]) >> p) & 1) == int(a > b)
            assert ((int(lt[0]) >> p) & 1) == int(a < b)
            assert ((int(eq[0]) >> p) & 1) == int(a == b)


class TestExtendedRegistry:
    """The non-default (larger / --full-style) entries must also build."""

    @pytest.mark.parametrize(
        "name",
        [
            "i2", "ex5", "C432", "x1", "example2", "pdc", "table5",
            "comp16", "rd73", "alu4tl", "duke2", "misex3", "Z9sym",
            "adder16", "parity16",
        ],
    )
    def test_extended_entry_builds(self, lib, name):
        netlist = build_benchmark(name, lib)
        check_netlist(netlist)
        assert netlist.num_gates() > 0

    def test_rd73_counts_correctly(self, lib):
        netlist = build_benchmark("rd73", lib)
        from repro.netlist.simulate import SimState, exhaustive_patterns

        sim = SimState(netlist, exhaustive_patterns(netlist.input_names))
        for m in range(128):
            weight = bin(m).count("1")
            got = 0
            for j in range(3):
                word = sim.words(netlist.outputs[f"s{j}"].name)
                got |= ((int(word[m // 64]) >> (m % 64)) & 1) << j
            assert got == weight, m
