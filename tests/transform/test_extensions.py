"""Tests for the optimizer extensions: constant substitution (redundancy
removal) and the §4.2 gain-threshold early termination."""

import pytest

from repro.equiv.checker import check_equivalent
from repro.pipeline import run_pipeline
from repro.power.estimate import PowerEstimator
from repro.power.probability import SimulationProbability
from repro.transform.candidates import CandidateOptions, generate_candidates
from repro.transform.gain import full_gain, quick_gain
from repro.transform.optimizer import OptimizeOptions, power_optimize
from repro.transform.permissible import PERMISSIBLE, check_candidate
from repro.transform.substitution import (
    IS2,
    OS2,
    Substitution,
    apply_substitution,
)
from repro.errors import TransformError


def redundant_netlist(builder):
    """h = (a·b)·!b is constant 0; y = h + c."""
    a, bb, c = builder.inputs("a", "b", "c")
    nb = builder.not_(bb, name="nb")
    g = builder.and_(a, bb, name="g")
    h = builder.and_(g, nb, name="h")
    y = builder.or_(h, c, name="y")
    builder.output("y", y)
    return builder.build()


class TestConstantSubstitutionModel:
    def test_validation(self):
        with pytest.raises(TransformError):
            Substitution(OS2, "t", "", constant=2)
        with pytest.raises(TransformError):
            Substitution(OS2, "t", "b", constant=0)  # source + constant
        with pytest.raises(TransformError):
            Substitution(OS2, "t", "")  # neither
        sub = Substitution(OS2, "t", "", constant=1)
        assert sub.is_constant
        assert sub.source_names() == ()
        assert "1" in str(sub)

    def test_apply_creates_tie(self, builder):
        nl = redundant_netlist(builder)
        sub = Substitution(OS2, "h", "", constant=0)
        applied = apply_substitution(nl, sub)
        tie = nl.gate(applied.added[0])
        assert tie.cell.is_constant()
        # g, h, nb die.
        assert set(applied.removed) >= {"g", "h"}

    def test_apply_reuses_existing_tie(self, builder, lib):
        nl = redundant_netlist(builder)
        tie = nl.add_gate(lib.constant(False), [], name="tie0")
        nl.set_output("t", tie)  # keep it alive
        applied = apply_substitution(
            nl, Substitution(OS2, "h", "", constant=0)
        )
        assert applied.added == []

    def test_permissible(self, builder):
        nl = redundant_netlist(builder)
        result = check_candidate(nl, Substitution(OS2, "h", "", constant=0))
        assert result.status == PERMISSIBLE
        # The wrong constant is rejected.
        result = check_candidate(nl, Substitution(OS2, "h", "", constant=1))
        assert result.status != PERMISSIBLE

    def test_gain_exact(self, builder):
        nl = redundant_netlist(builder)
        est = PowerEstimator(nl, SimulationProbability(nl, exhaustive=True))
        sub = Substitution(OS2, "h", "", constant=0)
        predicted = full_gain(est, sub)
        before = est.total()
        applied = apply_substitution(nl, sub)
        est.update_after_edit(
            [nl.gate(n) for n in applied.resim_roots if n in nl.gates]
        )
        assert predicted.total == pytest.approx(before - est.total(), abs=1e-9)

    def test_candidates_generated(self, builder):
        nl = redundant_netlist(builder)
        est = PowerEstimator(nl, SimulationProbability(nl, exhaustive=True))
        candidates = generate_candidates(
            est, CandidateOptions(constant_substitution=True)
        )
        consts = [c for c in candidates if c.substitution.is_constant]
        assert any(
            c.substitution.target == "h" and c.substitution.constant == 0
            for c in consts
        )

    def test_disabled_by_default(self, builder):
        nl = redundant_netlist(builder)
        est = PowerEstimator(nl, SimulationProbability(nl, exhaustive=True))
        candidates = generate_candidates(est)
        assert not any(c.substitution.is_constant for c in candidates)

    def test_end_to_end(self, builder):
        nl = redundant_netlist(builder)
        ref = nl.copy("ref")
        result = power_optimize(
            nl,
            OptimizeOptions(
                num_patterns=1024,
                candidates=CandidateOptions(constant_substitution=True),
                sanitize=True,
            ),
        )
        assert result.final_power < result.initial_power
        assert check_equivalent(ref, nl).equal


class TestGainThreshold:
    def test_threshold_stops_early(self, lib):
        from tests.conftest import make_random_netlist

        nl = make_random_netlist(lib, 6, 20, 3, seed=71)
        all_moves = power_optimize(
            nl.copy("a"), OptimizeOptions(num_patterns=1024, max_rounds=4)
        )
        thresholded = power_optimize(
            nl.copy("b"),
            OptimizeOptions(
                num_patterns=1024,
                max_rounds=4,
                gain_threshold_fraction=0.02,
            ),
        )
        assert len(thresholded.moves) <= len(all_moves.moves)
        # Every accepted move clears the floor.
        floor = 0.02 * thresholded.initial_power
        for move in thresholded.moves:
            assert move.measured_power_gain > floor * 0.999

    def test_threshold_zero_equivalent_to_off(self, figure2, lib):
        from tests.conftest import make_figure2

        a = power_optimize(
            figure2, OptimizeOptions(num_patterns=1024, max_rounds=2)
        )
        b = power_optimize(
            make_figure2(lib),
            OptimizeOptions(
                num_patterns=1024, max_rounds=2, gain_threshold_fraction=0.0
            ),
        )
        assert len(a.moves) == len(b.moves)


class TestDedupeFirstAndVerbose:
    """Deduplicating before optimizing is the ``dedupe; powder`` pipeline."""

    def test_dedupe_first(self, builder):
        a, bb = builder.inputs("a", "b")
        g1 = builder.and_(a, bb, name="g1")
        g2 = builder.and_(a, bb, name="g2")
        builder.output("o1", builder.not_(g1, name="n1"))
        builder.output("o2", builder.not_(g2, name="n2"))
        nl = builder.build()
        outcome = run_pipeline(
            nl, "dedupe; powder", OptimizeOptions(num_patterns=512, max_rounds=1)
        )
        # Duplicates merged before the first estimate (4 gates -> 2); the
        # optimizer may shrink further (e.g. AND+INV -> NAND).
        assert outcome.passes[0].details["merged"] == 2
        assert nl.num_gates() <= 2
        assert outcome.optimize_result.netlist is nl
