"""The triage permissibility front-end agrees with the legacy oracle.

Triage (simulation kill, then an incremental CDCL proof) is a pure
performance change over the PODEM oracle: same verdicts, same move
sequences, same final netlists.  These tests pin that equivalence from
three angles — verdict agreement per substitution, counter consistency,
and end-to-end move sequence equality — plus the abort verdict an
exhausted SAT budget yields, and the conservative run it degrades to.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.equiv.checker import check_equivalent
from repro.pipeline.context import OptimizationContext
from repro.power.estimate import PowerEstimator
from repro.power.probability import SimulationProbability
from repro.telemetry import Tracer
from repro.transform.candidates import CandidateWorkspace
from repro.transform.optimizer import OptimizeOptions, PowerOptimizer
from repro.transform.permissible import (
    ABORTED,
    NOT_PERMISSIBLE,
    PERMISSIBLE,
    TriageChecker,
    check_candidate,
)
from repro.transform.substitution import (
    IS2,
    OS2,
    OS3,
    Substitution,
    apply_substitution,
)
from tests.conftest import make_random_netlist


def workspace_for(netlist, num_patterns=256, seed=3):
    engine = SimulationProbability(
        netlist, num_patterns=num_patterns, seed=seed
    )
    return CandidateWorkspace(PowerEstimator(netlist, engine))


class TestTriageVerdicts:
    def test_paper_move_is_permissible(self, figure2):
        d = figure2.gate("d")
        pin = [i for i, g in enumerate(d.fanins) if g.name == "a"][0]
        sub = Substitution(IS2, "a", "e", branch=("d", pin))
        result = TriageChecker(figure2).check(sub)
        assert result.status == PERMISSIBLE
        assert result.stage == "sat"

    def test_wrong_move_killed_by_simulation(self, figure2):
        result = TriageChecker(figure2).check(Substitution(OS2, "d", "e"))
        assert result.status == NOT_PERMISSIBLE
        assert result.stage == "sim"
        assert result.counterexample is not None

    def test_stale_target_rejected_at_apply(self, figure2):
        result = TriageChecker(figure2).check(
            Substitution(OS2, "nonexistent", "e")
        )
        assert result.status == NOT_PERMISSIBLE
        assert result.stage == "apply"

    def test_cycle_rejected_at_apply(self, builder):
        a, b = builder.inputs("a", "b")
        g1 = builder.and_(a, b, name="g1")
        g2 = builder.not_(g1, name="g2")
        builder.output("o", g2)
        nl = builder.build()
        result = TriageChecker(nl).check(Substitution(OS2, "g1", "g2"))
        assert result.status == NOT_PERMISSIBLE
        assert result.stage == "apply"

    def test_os3_permissible(self, figure2):
        sub = Substitution(OS3, "e", "a", source2="b", new_cell="and2")
        assert TriageChecker(figure2).check(sub).status == PERMISSIBLE

    def test_counterexample_names_every_input(self, figure2):
        result = TriageChecker(figure2).check(Substitution(OS2, "d", "e"))
        assert set(result.counterexample) == set(figure2.input_names)
        assert all(v in (0, 1) for v in result.counterexample.values())


class TestAgreementWithLegacyOracle:
    """Per-substitution verdicts match ``check_candidate`` exactly."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_generated_candidates_agree(self, lib, seed):
        netlist = make_random_netlist(lib, 5, 14, 3, seed=seed)
        pool = workspace_for(netlist).generate()
        triage = TriageChecker(netlist)
        for candidate in pool[:12]:
            sub = candidate.substitution
            fast = triage.check(sub)
            exact = check_candidate(netlist, sub)
            assert fast.status == exact.status, sub
        counters = triage.counters
        assert counters["sat_calls"] == (
            counters["sat_proofs"] + counters["sat_cex"]
        )
        assert counters["fallbacks"] == 0

    def test_counters_tally_stages(self, figure2):
        triage = TriageChecker(figure2)
        triage.check(Substitution(OS2, "d", "e"))  # sim kill
        d = figure2.gate("d")
        pin = [i for i, g in enumerate(d.fanins) if g.name == "a"][0]
        triage.check(Substitution(IS2, "a", "e", branch=("d", pin)))  # proof
        assert triage.counters["sim_kills"] == 1
        assert triage.counters["sat_proofs"] == 1


class TestBudgetAbort:
    """An exhausted SAT budget answers ABORTED (the paper's abort means
    reject), tallied under ``counters["fallbacks"]``."""

    @pytest.mark.parametrize("seed", [1, 7, 29])
    def test_sat_stage_verdicts_abort(self, lib, seed):
        netlist = make_random_netlist(lib, 5, 14, 3, seed=seed)
        pool = workspace_for(netlist).generate()
        triage = TriageChecker(netlist, conflict_limit=0)
        verdicts = [triage.check(c.substitution) for c in pool[:12]]
        sat_stage = [v for v in verdicts if v.stage == "sat"]
        assert sat_stage
        assert all(v.status == ABORTED for v in sat_stage)
        assert triage.counters["fallbacks"] == len(sat_stage)

    @pytest.mark.parametrize("conflict_limit", [0, 3])
    def test_exhausted_budget_degrades_to_a_conservative_run(
        self, lib, conflict_limit
    ):
        netlist = make_random_netlist(lib, 6, 20, 3, seed=3)
        reference = netlist.copy("ref")
        ctx = OptimizationContext(
            netlist,
            OptimizeOptions(num_patterns=256, max_rounds=3, trace=Tracer()),
        )
        triage = TriageChecker(netlist, conflict_limit=conflict_limit)
        ctx.put("triage", triage)
        result = PowerOptimizer(context=ctx).run()
        assert result.rejected_aborted == triage.counters["fallbacks"] > 0
        # Only proven moves were applied, and the reference oracle proves
        # each of them too.
        assert all(m.atpg_status == PERMISSIBLE for m in result.trace.moves)
        replay = reference.copy("replay")
        for move in result.moves:
            verdict = check_candidate(replay, move.substitution)
            assert verdict.status == PERMISSIBLE, move.substitution
            apply_substitution(replay, move.substitution)
        assert check_equivalent(reference, netlist).equal


class _PodemOptimizer(PowerOptimizer):
    """Decides every move with the PODEM oracle instead of triage."""

    def check_candidate(self, substitution):
        return check_candidate(self.netlist, substitution).status


class TestEndToEndEquivalence:
    """Same moves, same final power, whichever engine decides."""

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_move_sequences_identical(self, lib, seed):
        options = OptimizeOptions(num_patterns=256, max_rounds=3)
        podem = _PodemOptimizer(
            make_random_netlist(lib, 6, 20, 3, seed=seed), options
        ).run()
        triage = PowerOptimizer(
            make_random_netlist(lib, 6, 20, 3, seed=seed), options
        ).run()
        assert [
            m.substitution.candidate_id() for m in podem.moves
        ] == [m.substitution.candidate_id() for m in triage.moves]
        assert podem.final_power == triage.final_power
        assert podem.final_area == triage.final_area
