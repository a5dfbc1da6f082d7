"""Tests for multi-function kernel extraction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.sop import Cover, Cube
from repro.logic.truthtable import TruthTable
from repro.synth.extract import extract_kernels, total_literals
from repro.synth.flow import SynthesisOptions, synthesize
from repro.netlist.simulate import SimState, exhaustive_patterns
from repro.netlist.verify import check_netlist

NAMES4 = ["a", "b", "c", "d"]


def expand_result(result):
    """Flatten the extracted network back to truth tables over the PIs."""
    # Number of primary inputs = names minus intermediates.
    num_pis = len(result.names) - len(result.intermediates)
    tables: dict[int, TruthTable] = {}
    for v in range(num_pis):
        tables[v] = TruthTable.variable(v, num_pis)

    def cover_table(cover) -> TruthTable:
        out = TruthTable.constant(False, num_pis)
        for cube in cover.cubes:
            term = TruthTable.constant(True, num_pis)
            for var, pol in cube.literals():
                t = table_of(var)
                term = term & (t if pol else ~t)
            out = out | term
        return out

    def table_of(var: int) -> TruthTable:
        if var not in tables:
            name = result.names[var]
            tables[var] = cover_table(result.intermediates[name])
        return tables[var]

    return {po: cover_table(cover) for po, cover in result.outputs.items()}


class TestExtraction:
    def test_shared_kernel_across_outputs(self):
        # f = ac + ad, g = bc + bd: kernel (c + d) shared.
        f = Cover.from_strings(["1-1-", "1--1"])
        g = Cover.from_strings(["-11-", "-1-1"])
        result = extract_kernels(NAMES4, {"f": f, "g": g})
        assert result.num_extracted >= 1
        # The extraction must actually save literals.
        before = f.num_literals() + g.num_literals()
        assert total_literals(result) < before

    def test_function_preserved(self):
        f = Cover.from_strings(["1-1-", "1--1"])
        g = Cover.from_strings(["-11-", "-1-1"])
        result = extract_kernels(NAMES4, {"f": f, "g": g})
        flat = expand_result(result)
        assert flat["f"] == f.to_truthtable()
        assert flat["g"] == g.to_truthtable()

    def test_no_kernel_no_extraction(self):
        f = Cover.from_strings(["11--"])
        result = extract_kernels(NAMES4, {"f": f})
        assert result.num_extracted == 0
        assert result.outputs["f"].to_truthtable() == f.to_truthtable().extend(4)

    @given(
        st.lists(
            st.builds(
                lambda care, values: Cube(4, care, values & care),
                st.integers(0, 15),
                st.integers(0, 15),
            ),
            min_size=1,
            max_size=6,
        ),
        st.lists(
            st.builds(
                lambda care, values: Cube(4, care, values & care),
                st.integers(0, 15),
                st.integers(0, 15),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_preservation(self, cubes_f, cubes_g):
        f = Cover(4, cubes_f)
        g = Cover(4, cubes_g)
        result = extract_kernels(NAMES4, {"f": f, "g": g})
        flat = expand_result(result)
        assert flat["f"] == f.to_truthtable()
        assert flat["g"] == g.to_truthtable()


class TestFlowIntegration:
    def test_synthesize_with_extraction(self, lib):
        f = Cover.from_strings(["1-1-", "1--1"])
        g = Cover.from_strings(["-11-", "-1-1"])
        options = SynthesisOptions(extract=True)
        netlist = synthesize(NAMES4, {"f": f, "g": g}, lib, options=options)
        check_netlist(netlist)
        sim = SimState(netlist, exhaustive_patterns(NAMES4))
        for po, cover in (("f", f), ("g", g)):
            word = sim.words(netlist.outputs[po].name)
            for m in range(16):
                got = (int(word[0]) >> m) & 1
                assert got == int(cover.contains_minterm(m)), (po, m)

    def test_extraction_not_bigger(self, lib):
        from repro.bench.pla import random_pla

        pla = random_pla("x", 8, 6, 30, seed=13)
        plain = synthesize(pla.input_names, pla.on, lib, name="plain")
        extracted = synthesize(
            pla.input_names,
            pla.on,
            lib,
            options=SynthesisOptions(extract=True),
            name="extracted",
        )
        check_netlist(extracted)
        # Extraction shares logic: the mapped result must not blow up.
        assert extracted.total_area() <= plain.total_area() * 1.15
