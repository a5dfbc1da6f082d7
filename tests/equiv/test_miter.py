"""Tests for the miter behind the SAT stage of ``check_equivalent``.

:func:`~repro.sat.cnf.miter_cnf` joins two netlists over shared inputs
and asks that some output pair differ.  Its difference logic is clauses,
not library cells, so a library without an XOR2 cell needs nothing
synthesized for the comparison.
"""

from pathlib import Path

import pytest

from repro.bench.suite import build_benchmark
from repro.equiv.checker import EQUAL, NOT_EQUAL
from repro.errors import NetlistError
from repro.fuzz.oracle import verify_counterexample
from repro.library.genlib import parse_genlib_file
from repro.netlist.verify import check_netlist
from repro.sat.cnf import miter_cnf
from repro.sat.incremental import SAT, UNSAT, IncrementalSolver
from tests.conftest import make_figure2, sat_stage

NANDNOR = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "genlib" / "nandnor.genlib"
)


class TestBuildMiter:
    def test_equal_circuits_miter_is_zero(self, lib, figure2):
        formula = miter_cnf(figure2, make_figure2(lib))
        assert IncrementalSolver(formula).solve().status == UNSAT

    def test_different_circuits_miter_fires(self, lib, figure2, builder):
        a, bb, c = builder.inputs("a", "b", "c")
        e = builder.and_(a, bb, name="e")
        f = builder.or_(a, c, name="f")  # different function for f_out
        builder.output("f_out", f)
        builder.output("e_out", e)
        other = builder.build()
        formula = miter_cnf(figure2, other)
        result = IncrementalSolver(formula).solve()
        assert result.status == SAT
        vector = {
            name: int(result.model[formula.var_of[name]])
            for name in figure2.input_names
        }
        assert verify_counterexample(figure2, other, vector)

    def test_operands_untouched(self, lib, figure2):
        other = make_figure2(lib)
        gates_before = set(figure2.gates)
        assert sat_stage(figure2, other).status == EQUAL
        assert set(figure2.gates) == gates_before
        check_netlist(figure2)
        check_netlist(other)

    def test_mismatched_inputs_rejected(self, lib, figure2, builder):
        builder.input("z")
        g = builder.not_(builder.netlist.gate("z"))
        builder.output("f_out", g)
        builder.output("e_out", g)
        with pytest.raises(NetlistError):
            sat_stage(figure2, builder.build())

    def test_mismatched_outputs_rejected(self, lib, figure2, builder):
        a, bb, c = builder.inputs("a", "b", "c")
        g = builder.and_(a, bb)
        builder.output("only", g)
        with pytest.raises(NetlistError):
            sat_stage(figure2, builder.build())

    def test_multi_output_or_tree(self, lib, builder):
        # Four outputs: the miter asks that any one of the pairs differ.
        a, b = builder.inputs("a", "b")
        for i, g in enumerate(
            [builder.and_(a, b), builder.or_(a, b), builder.xor_(a, b), builder.nand_(a, b)]
        ):
            builder.output(f"o{i}", g)
        left = builder.build()
        from repro.netlist.build import NetlistBuilder

        b2 = NetlistBuilder(lib, "right")
        a2, bb2 = b2.inputs("a", "b")
        for i, g in enumerate(
            [b2.and_(a2, bb2), b2.or_(a2, bb2), b2.xor_(a2, bb2), b2.nand_(a2, bb2)]
        ):
            b2.output(f"o{i}", g)
        right = b2.build()
        assert sat_stage(left, right).status == EQUAL
        # Only the last pair differs.
        right.gate(right.outputs["o3"].name).cell = lib["and2"]
        result = sat_stage(left, right)
        assert result.status == NOT_EQUAL
        assert verify_counterexample(left, right, result.counterexample)


class TestLibraryWithoutXor:
    """A pair mapped onto the NAND/NOR-only library, decided by SAT alone."""

    @pytest.fixture(scope="class")
    def nandnor_pair(self):
        library = parse_genlib_file(NANDNOR)
        assert not any(
            cell.function.nvars == 2 and cell.function.bits == 0b0110
            for cell in library.cells.values()
        )
        power = build_benchmark("rd53", library, map_mode="power")
        area = build_benchmark("rd53", library, map_mode="area")
        return power, area

    def test_equal_pair(self, nandnor_pair):
        power, area = nandnor_pair
        result = sat_stage(power, area)
        assert (result.status, result.stage) == (EQUAL, "sat")

    def test_unequal_pair(self, nandnor_pair):
        power, area = nandnor_pair
        mutated = area.copy("mutated")
        po, driver = next(iter(mutated.outputs.items()))
        mutated.set_output(
            po, mutated.add_gate(mutated.library.inverter(), [driver], name="mut")
        )
        result = sat_stage(power, mutated)
        assert (result.status, result.stage) == (NOT_EQUAL, "sat")
        assert verify_counterexample(power, mutated, result.counterexample)
