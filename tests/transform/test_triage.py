"""The triage permissibility front-end agrees with the reference oracle.

Triage (simulation kill, then an incremental CDCL proof) is a pure
performance change over :func:`check_candidate`, which copies the netlist
and runs the equivalence checker.  At these sizes the checker decides by
simulation or BDDs, engines that share no code with the triage solver,
and every reference verdict here asserts that it did.  Same verdicts,
same move sequences, same final netlists: these tests pin that
equivalence from three angles — verdict agreement per substitution,
counter consistency, and end-to-end move sequence equality — plus the
abort verdict an exhausted SAT budget yields, and the conservative run it
degrades to.

Both routes are pinned.  On a netlist with at most 9 primary inputs the
checker's 512 patterns are every input vector, so simulation decides
each move alone (stage ``"sim"``, proofs included); the SAT stage is
exercised on netlists with 10 or more inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.equiv.checker import check_equivalent
from repro.netlist.netlist import Netlist
from repro.netlist.simulate import SimState
from repro.netlist.traverse import topological_order
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
    apply_to_copy,
)
from tests.conftest import make_random_netlist

#: Primary inputs that put a netlist above the checker's exhaustive bound
#: (``2**10 > 512`` default patterns), so its survivors reach SAT.
ABOVE_BOUND = 10


def reference_status(netlist, substitution):
    """``check_candidate``'s verdict, decided by simulation or BDDs.

    A move that would close a cycle is rejected at stage ``"apply"``
    before any engine runs; the optimizer asks about such moves.
    """
    verdict = check_candidate(netlist, substitution)
    assert verdict.stage in ("apply", "simulation", "bdd"), substitution
    return verdict.status


def workspace_for(netlist, num_patterns=256, seed=3):
    engine = SimulationProbability(
        netlist, num_patterns=num_patterns, seed=seed
    )
    return CandidateWorkspace(PowerEstimator(netlist, engine))


def widened(netlist, total_inputs=ABOVE_BOUND):
    """``netlist`` with unused primary inputs added up to ``total_inputs``."""
    for i in range(total_inputs - len(netlist.input_names)):
        netlist.add_input(f"unused{i}")
    return netlist


def paper_move(netlist):
    """Figure 2's permissible move: d reads e in place of a."""
    d = netlist.gate("d")
    pin = [i for i, g in enumerate(d.fanins) if g.name == "a"][0]
    return Substitution(IS2, "a", "e", branch=("d", pin))


class TestTriageVerdicts:
    def test_paper_move_is_permissible(self, figure2):
        triage = TriageChecker(widened(figure2))
        result = triage.check(paper_move(figure2))
        assert result.status == PERMISSIBLE
        assert result.stage == "sat"
        assert triage.counters["sim_proofs"] == 0

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

    @settings(max_examples=12, deadline=None)
    @given(num_inputs=st.integers(1, 9), seed=st.integers(0, 10_000))
    def test_generated_candidates_agree(self, lib, num_inputs, seed):
        # At most 9 inputs: simulation decides every candidate of the
        # first pool, proofs included, and no SAT state is built.  The
        # pool comes from 64 patterns, so some of it is not permissible.
        netlist = make_random_netlist(lib, num_inputs, 14, 3, seed=seed)
        pool = workspace_for(netlist, num_patterns=64).generate()
        triage = TriageChecker(netlist)
        for candidate in pool:
            sub = candidate.substitution
            fast = triage.check(sub)
            assert fast.status == reference_status(netlist, sub), sub
            if fast.status == PERMISSIBLE:
                assert fast.stage == "sim", sub
        counters = triage.counters
        assert counters["sat_calls"] == 0
        assert counters["sim_kills"] + counters["sim_proofs"] == len(pool)
        assert triage._sat_cache is None

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_generated_candidates_agree_above_the_bound(self, lib, seed):
        netlist = make_random_netlist(lib, ABOVE_BOUND, 14, 3, seed=seed)
        pool = workspace_for(netlist).generate()
        triage = TriageChecker(netlist)
        for candidate in pool[:12]:
            sub = candidate.substitution
            fast = triage.check(sub)
            assert fast.status == reference_status(netlist, sub), sub
        counters = triage.counters
        assert counters["sim_proofs"] == 0
        assert counters["sat_calls"] == (
            counters["sat_proofs"] + counters["sat_cex"]
        )
        assert counters["fallbacks"] == 0

    def test_counters_tally_stages(self, figure2):
        widened(figure2)
        triage = TriageChecker(figure2)
        triage.check(Substitution(OS2, "d", "e"))  # sim kill
        triage.check(paper_move(figure2))  # SAT proof
        assert triage.counters["sim_kills"] == 1
        assert triage.counters["sat_proofs"] == 1
        assert triage.counters["sim_proofs"] == 0

    def test_counters_tally_stages_below_the_bound(self, figure2):
        triage = TriageChecker(figure2)
        triage.check(Substitution(OS2, "d", "e"))  # sim kill
        proof = triage.check(paper_move(figure2))
        assert (proof.status, proof.stage) == (PERMISSIBLE, "sim")
        assert triage.counters["sim_kills"] == 1
        assert triage.counters["sim_proofs"] == 1
        assert triage.counters["sat_calls"] == 0
        assert triage._sat_cache is None


class TestExhaustiveBound:
    """Simulation proves a move only when its patterns are every vector."""

    @pytest.mark.parametrize(
        "num_inputs, num_patterns, exhaustive",
        [(9, 512, True), (9, 256, False), (ABOVE_BOUND, 512, False)],
    )
    def test_bound(self, lib, num_inputs, num_patterns, exhaustive):
        netlist = make_random_netlist(lib, num_inputs, 14, 3, seed=0)
        pool = workspace_for(netlist).generate()
        triage = TriageChecker(netlist, num_patterns=num_patterns)
        proven = []
        for candidate in pool[:12]:
            sub = candidate.substitution
            verdict = triage.check(sub)
            assert verdict.status == reference_status(netlist, sub)
            if verdict.status == PERMISSIBLE:
                proven.append(verdict.stage)
        assert proven
        if exhaustive:
            assert set(proven) == {"sim"}
            assert triage.counters["sat_calls"] == 0
        else:
            assert set(proven) == {"sat"}
            assert triage.counters["sim_proofs"] == 0

    def test_netlist_without_inputs(self, lib):
        netlist = Netlist("tied", lib)
        zero = netlist.add_gate(lib["zero"], [], "z")
        one = netlist.add_gate(lib["one"], [], "o")
        netlist.set_output("p", netlist.add_gate(lib["nand2"], [zero, one], "g"))
        netlist.set_output("q", netlist.add_gate(lib["and2"], [zero, one], "h"))
        moves = [
            Substitution(OS2, "g", "o"),
            Substitution(OS2, "g", "z", invert1=True),
            Substitution(OS2, "h", "z"),
            Substitution(OS2, "h", "o"),
            Substitution(OS2, "g", "z"),
        ]
        triage = TriageChecker(netlist)
        verdicts = [triage.check(sub) for sub in moves]
        assert [v.status for v in verdicts] == [
            reference_status(netlist, sub) for sub in moves
        ]
        assert [v.status for v in verdicts] == [PERMISSIBLE] * 3 + [
            NOT_PERMISSIBLE
        ] * 2
        assert triage.counters["sat_calls"] == 0


def side_by_side(lib, seeds):
    """Generated netlists of ``ABOVE_BOUND`` inputs each, side by side in
    one netlist with disjoint inputs; half ``i`` prefixes its names with
    ``h<i>_``."""
    merged = Netlist("halves", lib)
    for index, seed in enumerate(seeds):
        half = make_random_netlist(lib, ABOVE_BOUND, 24, 3, seed=seed)
        prefix = f"h{index}_"
        gates = {}
        for gate in topological_order(half):
            name = prefix + gate.name
            gates[gate.name] = (
                merged.add_input(name)
                if gate.is_input
                else merged.add_gate(
                    gate.cell, [gates[f.name] for f in gate.fanins], name
                )
            )
        for po, driver in half.outputs.items():
            merged.set_output(prefix + po, gates[driver.name])
    return merged


def output_values(netlist, vector):
    """Every primary output's value under one input vector."""
    words = {
        name: np.full(1, np.uint64(0xFFFFFFFFFFFFFFFF if vector[name] else 0))
        for name in netlist.input_names
    }
    sim = SimState(netlist, words)
    return {
        po: sim.values[driver.name] & 1
        for po, driver in netlist.outputs.items()
    }


class TestConeOfInfluence:
    """The SAT stage encodes only the logic a miter reads."""

    @pytest.mark.parametrize("seeds", [(1, 2), (5, 6)])
    def test_a_move_in_one_half_never_encodes_the_other(self, lib, seeds):
        netlist = side_by_side(lib, seeds)
        # A 64-pattern pool holds moves that are not permissible.
        pool = workspace_for(netlist, num_patterns=64).generate()
        moves = [
            c.substitution
            for c in pool
            if all(
                name.startswith("h0_")
                for name in (
                    c.substitution.target,
                    *c.substitution.source_names(),
                    *(c.substitution.branch or ())[:1],
                )
            )
        ]
        # Without patterns the simulation stage is skipped, so SAT
        # decides every move, the refutations included.
        triage = TriageChecker(netlist, num_patterns=0)
        verdicts = {}
        for sub in moves:
            verdict = triage.check(sub)
            assert verdict.status == reference_status(netlist, sub), sub
            verdicts[verdict.status] = verdicts.get(verdict.status, 0) + 1
            if verdict.status == NOT_PERMISSIBLE:
                assert verdict.stage == "sat"
                trial, _applied = apply_to_copy(netlist, sub)
                vector = verdict.counterexample
                assert output_values(netlist, vector) != output_values(
                    trial, vector
                ), sub
        assert verdicts.get(PERMISSIBLE) and verdicts.get(NOT_PERMISSIBLE)
        formula = triage._sat_cache[1]
        assert formula.var_of
        assert all(name.startswith("h0_") for name in formula.var_of)


class TestBudgetAbort:
    """An exhausted SAT budget answers ABORTED (the paper's abort means
    reject), tallied under ``counters["fallbacks"]``."""

    @pytest.mark.parametrize("seed", [1, 7, 29])
    def test_sat_stage_verdicts_abort(self, lib, seed):
        netlist = make_random_netlist(lib, ABOVE_BOUND, 14, 3, seed=seed)
        pool = workspace_for(netlist).generate()
        triage = TriageChecker(netlist, conflict_limit=0)
        verdicts = [triage.check(c.substitution) for c in pool[:12]]
        sat_stage = [v for v in verdicts if v.stage == "sat"]
        assert sat_stage
        assert all(v.status == ABORTED for v in sat_stage)
        assert triage.counters["fallbacks"] == len(sat_stage)

    @pytest.mark.parametrize("conflict_limit", [0, 3])
    def test_exhausted_budget_degrades_to_a_conservative_run(
        self, lib, conflict_limit, monkeypatch
    ):
        netlist = make_random_netlist(lib, ABOVE_BOUND, 20, 3, seed=3)
        reference = netlist.copy("ref")
        triage = TriageChecker(netlist, conflict_limit=conflict_limit)
        monkeypatch.setattr(
            OptimizationContext, "_build_triage", lambda _ctx: triage
        )
        result = PowerOptimizer(
            netlist,
            OptimizeOptions(num_patterns=256, max_rounds=3, trace=Tracer()),
        ).run()
        assert result.rejected_aborted == triage.counters["fallbacks"] > 0
        # Only proven moves were applied, and the reference oracle proves
        # each of them too.
        assert all(m.atpg_status == PERMISSIBLE for m in result.trace.moves)
        replay = reference.copy("replay")
        for move in result.moves:
            status = reference_status(replay, move.substitution)
            assert status == PERMISSIBLE, move.substitution
            apply_substitution(replay, move.substitution)
        assert check_equivalent(reference, netlist).equal


class _BddOptimizer(PowerOptimizer):
    """Decides every move with the simulation-or-BDD reference instead of
    triage."""

    def check_candidate(self, substitution):
        return reference_status(self.netlist, substitution)


class TestEndToEndEquivalence:
    """Same moves, same final power, whichever engine decides."""

    @staticmethod
    def _assert_same_run(lib, num_inputs, seed):
        options = OptimizeOptions(num_patterns=256, max_rounds=3)
        reference = _BddOptimizer(
            make_random_netlist(lib, num_inputs, 20, 3, seed=seed), options
        ).run()
        optimizer = PowerOptimizer(
            make_random_netlist(lib, num_inputs, 20, 3, seed=seed), options
        )
        triage = optimizer.run()
        assert [
            m.substitution.candidate_id() for m in reference.moves
        ] == [m.substitution.candidate_id() for m in triage.moves]
        assert reference.final_power == triage.final_power
        assert reference.final_area == triage.final_area
        checker = optimizer.triage_checker
        return checker.counters if checker is not None else None

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_move_sequences_identical(self, lib, seed):
        counters = self._assert_same_run(lib, 6, seed)
        assert counters is None or counters["sat_calls"] == 0

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_move_sequences_identical_above_the_bound(self, lib, seed):
        counters = self._assert_same_run(lib, ABOVE_BOUND, seed)
        assert counters is None or counters["sim_proofs"] == 0
