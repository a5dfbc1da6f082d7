"""Tests for the CNF encoder and the SAT stage of the equivalence
checker, including cross-validation of the SAT stage against the
checker's simulation and BDD stages."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.equiv.checker import check_equivalent
from repro.fuzz.oracle import verify_counterexample
from repro.netlist.blif import parse_blif_file
from repro.netlist.build import NetlistBuilder
from repro.sat.cnf import CnfFormula, tseitin_encode
from repro.sat.incremental import SAT, IncrementalSolver
from tests.conftest import make_figure2, make_random_netlist, sat_stage
from tests.sat.test_incremental import assert_matches_enumeration

BLIF_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "blif"

#: The stages that decide a reference verdict without the SAT solver.
REFERENCE_STAGES = ("simulation", "bdd")


def reference_verdict(left, right):
    """``check_equivalent`` decided before its SAT stage."""
    result = check_equivalent(left, right)
    assert result.stage in REFERENCE_STAGES
    return result


class TestTseitin:
    def test_consistency_only_models(self, figure2):
        # Any model must respect the circuit: check via brute force for all
        # 8 input vectors by assuming the inputs and solving.
        for m in range(8):
            f = tseitin_encode(figure2)
            values = {}
            for i, name in enumerate(figure2.input_names):
                bit = (m >> i) & 1
                values[name] = bit
                f.assume(f.var_of[name] if bit else -f.var_of[name])
            result = IncrementalSolver(f).solve()
            assert result.status == SAT
            # Compare against direct evaluation.
            from repro.netlist.traverse import topological_order

            ref = dict(values)
            for gate in topological_order(figure2):
                if gate.is_input:
                    continue
                ref[gate.name] = gate.cell.evaluate(
                    [ref[x.name] for x in gate.fanins]
                )
            for name, want in ref.items():
                got = result.model[f.var_of[name]]
                assert got == bool(want), (m, name)

    def test_tie_cells_encoded(self, builder, lib):
        tie = builder.netlist.add_gate(lib.constant(True), [], name="one")
        a = builder.input("a")
        g = builder.and_(a, tie, name="g")
        builder.output("o", g)
        nl = builder.build()
        f = tseitin_encode(nl)
        f.assume(f.var_of["a"])
        result = IncrementalSolver(f).solve()
        assert result.status == SAT
        assert result.model[f.var_of["g"]] is True

    def test_stems_numbered_in_topological_order(self, figure2):
        # A lone netlist still names every stem by its bare name.
        from repro.netlist.traverse import topological_order

        formula = tseitin_encode(figure2)
        order = [g.name for g in topological_order(figure2)]
        assert formula.var_of == {n: i + 1 for i, n in enumerate(order)}
        assert formula.num_vars == len(order)


class TestSatOracle:
    def test_equal_copies(self, lib, figure2):
        result = sat_stage(figure2, make_figure2(lib))
        assert result.equal

    def test_detects_difference(self, lib, figure2, builder):
        a, bb, c = builder.inputs("a", "b", "c")
        e = builder.and_(a, bb, name="e")
        f = builder.or_(a, c, name="f")
        builder.output("f_out", f)
        builder.output("e_out", e)
        other = builder.build()
        result = sat_stage(figure2, other)
        assert result.status == "not-equal"
        assert result.counterexample is not None

    @pytest.mark.parametrize("seed", [301, 302, 303, 304, 305])
    def test_cross_validation_equal(self, lib, seed):
        nl = make_random_netlist(lib, 6, 16, 3, seed=seed)
        copy = nl.copy("c")
        reference = reference_verdict(nl, copy)
        sat_verdict = sat_stage(nl, copy)
        assert reference.equal and sat_verdict.equal

    @pytest.mark.parametrize("seed", [311, 312, 313])
    def test_cross_validation_mutated(self, lib, seed):
        nl = make_random_netlist(lib, 6, 16, 3, seed=seed)
        mutated = nl.copy("m")
        po, driver = next(iter(mutated.outputs.items()))
        inv = mutated.add_gate(mutated.library.inverter(), [driver], name="mut")
        mutated.set_output(po, inv)
        reference = reference_verdict(nl, mutated)
        sat_verdict = sat_stage(nl, mutated)
        assert reference.status == "not-equal"
        assert sat_verdict.status == "not-equal"
        # Each oracle's counterexample satisfies the CNF-level difference.
        cex = sat_verdict.counterexample
        from tests.equiv.test_checker import evaluate_outputs

        assert evaluate_outputs(nl, cex) != evaluate_outputs(mutated, cex)

    def test_cross_validation_after_powder(self, lib):
        from repro.bench.suite import build_benchmark
        from repro.transform.optimizer import OptimizeOptions, power_optimize

        nl = build_benchmark("sqrt8", lib)
        ref = nl.copy("ref")
        power_optimize(
            nl, OptimizeOptions(num_patterns=1024, max_rounds=2, max_moves=8)
        )
        assert sat_stage(ref, nl).equal

    def test_mismatched_interfaces(self, figure2, builder):
        builder.input("z")
        g = builder.not_(builder.netlist.gate("z"))
        builder.output("f_out", g)
        builder.output("e_out", g)
        import pytest as _pytest
        from repro.errors import NetlistError

        with _pytest.raises(NetlistError):
            sat_stage(figure2, builder.build())


class TestMiterNamespaces:
    """``miter_cnf`` keeps each side's gates and its difference variables
    out of the primary-input namespace, whatever the signals are called."""

    def test_input_named_like_a_prefixed_gate(self, lib):
        # Left PO p reads the input "L.g"; left gate g must not share its
        # variable, or p would be forced to !a and match the right side.
        left = NetlistBuilder(lib, "left")
        a, lg = left.inputs("a", "L.g")
        left.output("o", left.not_(a, name="g"))
        left.output("p", lg)
        right = NetlistBuilder(lib, "right")
        a, _ = right.inputs("a", "L.g")
        right.output("o", right.not_(a, name="g"))
        right.output("p", right.not_(a, name="h"))
        left, right = left.build(), right.build()
        assert reference_verdict(left, right).status == "not-equal"
        result = sat_stage(left, right)
        assert result.status == "not-equal"
        assert verify_counterexample(left, right, result.counterexample)

    def test_input_named_like_a_difference_variable(self, lib):
        # The difference variable of PO o must not replace the input
        # "diff.o" when the counterexample is read back.
        left = NetlistBuilder(lib, "left")
        a, d = left.inputs("a", "diff.o")
        left.output("o", left.and_(a, d, name="g"))
        right = NetlistBuilder(lib, "right")
        a, _ = right.inputs("a", "diff.o")
        right.output("o", a)
        left, right = left.build(), right.build()
        result = sat_stage(left, right)
        assert result.status == "not-equal"
        assert verify_counterexample(left, right, result.counterexample)


def test_ttt2_self_copy_is_proved_equal(lib):
    # 24 inputs: too many for exhaustive simulation, so the SAT stage has
    # to decide this itself, within its default conflict budget.
    netlist = parse_blif_file(BLIF_DIR / "ttt2.blif", lib)
    result = sat_stage(netlist, netlist.copy("copy"))
    assert result.status == "equal"


class TestTripleOracleAgreement:
    """The simulation-or-BDD reference, the SAT stage and exhaustive
    simulation must agree on candidate permissibility."""

    @pytest.mark.parametrize("seed", [321, 322])
    def test_candidates_triple_checked(self, lib, seed):
        from repro.power.estimate import PowerEstimator
        from repro.power.probability import SimulationProbability
        from repro.transform.candidates import (
            CandidateOptions,
            generate_candidates,
        )
        from repro.netlist.simulate import SimState, exhaustive_patterns
        from repro.transform.substitution import apply_to_copy

        nl = make_random_netlist(lib, 6, 14, 3, seed=seed)
        patterns = exhaustive_patterns(nl.input_names)

        def outputs(netlist):
            sim = SimState(netlist, patterns)
            return {po: sim.value(d.name) for po, d in netlist.outputs.items()}

        est = PowerEstimator(nl, SimulationProbability(nl, exhaustive=True))
        candidates = generate_candidates(
            est, CandidateOptions(max_per_target=2, max_total=12)
        )
        for candidate in candidates[:8]:
            trial, _ = apply_to_copy(nl, candidate.substitution)
            reference = reference_verdict(nl, trial).equal
            sat = sat_stage(nl, trial).equal
            exhaustive = outputs(nl) == outputs(trial)
            assert reference == sat == exhaustive, str(candidate.substitution)


@st.composite
def formulas(draw):
    """Small random CNFs: 1-8 variables, 0-20 clauses of 1-3 literals."""
    num_vars = draw(st.integers(1, 8))
    f = CnfFormula()
    vs = [f.new_var() for _ in range(num_vars)]
    for _ in range(draw(st.integers(0, 20))):
        lits = []
        for _ in range(draw(st.integers(1, 3))):
            v = draw(st.sampled_from(vs))
            lits.append(v if draw(st.booleans()) else -v)
        f.add_clause(*lits)
    return f


class TestDpllBruteForce:
    """Property: solver verdicts and models match brute-force enumeration.
    The solver under test used to be DPLL; it is now `IncrementalSolver`,
    the one behind every SAT query in the package."""

    @settings(max_examples=150, deadline=None)
    @given(formulas())
    def test_random_formulas(self, formula):
        assert_matches_enumeration(formula)
