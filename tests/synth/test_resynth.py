"""Tests for un-mapping and resynthesis."""

import numpy as np
import pytest

from repro.equiv.checker import check_equivalent
from repro.library.genlib import parse_genlib
from repro.netlist.simulate import SimState, exhaustive_patterns
from repro.netlist.verify import check_netlist
from repro.synth.mapper import MapOptions
from repro.synth.resynth import resynthesize, unmap
from tests.conftest import make_random_netlist

NAND_ONLY = """
GATE inv 1.0 O=!a;       PIN * INV 1.0 999 1.0 0.5 1.0 0.5
GATE nand2 2.0 O=!(a*b); PIN * INV 1.0 999 1.0 0.5 1.0 0.5
"""


class TestUnmap:
    def test_function_preserved(self, figure2):
        graph = unmap(figure2)
        sim = SimState(figure2, exhaustive_patterns(figure2.input_names))
        values = graph.simulate(exhaustive_patterns(graph.pi_names))
        for po, node in graph.outputs.items():
            want = sim.words(figure2.outputs[po].name)
            assert np.array_equal(values[node], want), po

    def test_sharing_across_cells(self, builder):
        # Two gates computing identical sub-logic fold together in the
        # hashed subject graph.
        a, b = builder.inputs("a", "b")
        g1 = builder.and_(a, b, name="g1")
        g2 = builder.and_(a, b, name="g2")
        builder.output("o1", g1)
        builder.output("o2", g2)
        graph = unmap(builder.build())
        assert graph.outputs["o1"] == graph.outputs["o2"]


class TestResynthesize:
    @pytest.mark.parametrize("seed", [501, 502])
    def test_round_trip_equivalent(self, lib, seed):
        nl = make_random_netlist(lib, 6, 16, 3, seed=seed)
        remapped = resynthesize(nl)
        check_netlist(remapped)
        assert check_equivalent(nl, remapped).equal

    def test_retarget_to_nand_library(self, figure2):
        nand_lib = parse_genlib(NAND_ONLY, "nand-only")
        remapped = resynthesize(figure2, nand_lib)
        check_netlist(remapped)
        used = {g.cell.name for g in remapped.logic_gates()}
        assert used <= {"inv", "nand2"}
        # Cross-library equivalence via exhaustive simulation.
        sim_a = SimState(figure2, exhaustive_patterns(figure2.input_names))
        sim_b = SimState(remapped, exhaustive_patterns(remapped.input_names))
        for po in figure2.outputs:
            assert np.array_equal(
                sim_a.words(figure2.outputs[po].name),
                sim_b.words(remapped.outputs[po].name),
            ), po

    def test_original_untouched(self, figure2):
        gates_before = set(figure2.gates)
        resynthesize(figure2, options=MapOptions(mode="area"))
        assert set(figure2.gates) == gates_before

    def test_remap_after_powder(self, lib):
        # The map -> POWDER -> remap loop must stay functionally stable.
        from repro.bench.suite import build_benchmark
        from repro.transform.optimizer import OptimizeOptions, power_optimize

        nl = build_benchmark("sqrt8", lib)
        ref = nl.copy("ref")
        power_optimize(nl, OptimizeOptions(num_patterns=512, max_rounds=2, max_moves=6))
        remapped = resynthesize(nl)
        check_netlist(remapped)
        assert check_equivalent(ref, remapped).equal
