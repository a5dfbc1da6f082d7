"""Incremental STA: ``update_after_edit`` must match a from-scratch rebuild
exactly, and ``what_if`` must match STA on an applied trial copy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetlistError, TransformError
from repro.library.standard import standard_library
from repro.power.estimate import PowerEstimator
from repro.power.probability import SimulationProbability
from repro.timing.analysis import TimingAnalysis
from repro.transform.candidates import CandidateOptions, generate_candidates
from repro.transform.substitution import (
    IS2,
    OS2,
    Substitution,
    apply_substitution,
    apply_to_copy,
)

from tests.conftest import make_random_netlist

LIB = standard_library()


def _estimator(netlist, seed=2):
    return PowerEstimator(
        netlist, SimulationProbability(netlist, num_patterns=256, seed=seed)
    )


def assert_timing_equal(incremental, fresh):
    assert set(incremental.arrival) == set(fresh.arrival)
    for name, value in fresh.arrival.items():
        assert incremental.arrival[name] == value, name
    for name, value in fresh.delay_of.items():
        assert incremental.delay_of[name] == value, name
    assert incremental.circuit_delay == fresh.circuit_delay
    assert incremental.required_limit == fresh.required_limit
    assert incremental.required == fresh.required


class TestUpdateAfterEdit:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_rebuild_after_substitutions(self, seed):
        netlist = make_random_netlist(LIB, 6, 20, 3, seed)
        estimator = _estimator(netlist)
        timing = TimingAnalysis(netlist)
        pool = generate_candidates(estimator, CandidateOptions(max_total=50))
        applied_count = 0
        for candidate in pool:
            if applied_count >= 4:
                break
            if not candidate.substitution.validate_against(netlist):
                continue
            try:
                applied = apply_substitution(netlist, candidate.substitution)
            except (TransformError, NetlistError):
                continue
            applied_count += 1
            roots = [
                netlist.gate(n)
                for n in applied.dirty_gate_names(netlist)
            ]
            timing.update_after_edit(roots)
            assert_timing_equal(timing, TimingAnalysis(netlist))

    def test_with_explicit_limit(self):
        netlist = make_random_netlist(LIB, 5, 14, 2, seed=11)
        limit = TimingAnalysis(netlist).circuit_delay * 1.5
        timing = TimingAnalysis(netlist, limit)
        estimator = _estimator(netlist)
        pool = generate_candidates(estimator, CandidateOptions(max_total=20))
        for candidate in pool:
            if not candidate.substitution.validate_against(netlist):
                continue
            try:
                applied = apply_substitution(netlist, candidate.substitution)
            except (TransformError, NetlistError):
                continue
            roots = [netlist.gate(n) for n in applied.dirty_gate_names(netlist)]
            timing.update_after_edit(roots)
            break
        fresh = TimingAnalysis(netlist, limit)
        assert_timing_equal(timing, fresh)
        assert timing.required_limit == limit

    def test_required_lazy_invalidated(self):
        netlist = make_random_netlist(LIB, 5, 14, 2, seed=4)
        timing = TimingAnalysis(netlist)
        before = dict(timing.required)
        estimator = _estimator(netlist)
        for candidate in generate_candidates(estimator, CandidateOptions()):
            try:
                applied = apply_substitution(netlist, candidate.substitution)
            except (TransformError, NetlistError):
                continue
            roots = [netlist.gate(n) for n in applied.dirty_gate_names(netlist)]
            timing.update_after_edit(roots)
            break
        after = timing.required
        assert after == TimingAnalysis(netlist).required
        assert set(before) != set(after) or before != after or True

    def test_noop_update(self):
        netlist = make_random_netlist(LIB, 5, 12, 2, seed=9)
        timing = TimingAnalysis(netlist)
        timing.update_after_edit([])
        assert_timing_equal(timing, TimingAnalysis(netlist))


class TestWhatIf:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_trial_copy(self, seed):
        netlist = make_random_netlist(LIB, 6, 20, 3, seed)
        estimator = _estimator(netlist)
        timing = TimingAnalysis(netlist)
        checked = 0
        for candidate in generate_candidates(
            estimator, CandidateOptions(max_total=60)
        ):
            predicted = timing.what_if(candidate.substitution)
            try:
                trial, _ = apply_to_copy(netlist, candidate.substitution)
            except (TransformError, NetlistError):
                assert predicted is None
                continue
            expected = TimingAnalysis(trial).circuit_delay
            assert predicted is not None
            assert predicted == pytest.approx(expected, abs=1e-9), str(
                candidate.substitution
            )
            checked += 1
        assert checked > 0

    def test_stale_substitution_is_none(self):
        netlist = make_random_netlist(LIB, 5, 14, 2, seed=6)
        timing = TimingAnalysis(netlist)
        sub = Substitution(OS2, "does_not_exist", netlist.input_names[0])
        assert timing.what_if(sub) is None

    def test_cycle_creating_substitution_is_none(self):
        netlist = make_random_netlist(LIB, 5, 16, 3, seed=8)
        timing = TimingAnalysis(netlist)
        # Find a (target, source) pair where the source lies in the TFO of
        # one of the target's sinks: rewiring would create a cycle, and the
        # reference path (apply_to_copy) raises.
        found = None
        for target in netlist.logic_gates():
            for sink, pin in target.fanouts:
                from repro.netlist.traverse import transitive_fanout

                for downstream in transitive_fanout(netlist, [sink]):
                    if downstream is target or downstream.is_input:
                        continue
                    sub = Substitution(
                        IS2, target.name, downstream.name, branch=(sink.name, pin)
                    )
                    found = sub
                    break
                if found:
                    break
            if found:
                break
        if found is None:
            pytest.skip("no cycle-creating pair in this netlist")
        with pytest.raises((TransformError, NetlistError)):
            apply_to_copy(netlist, found)
        assert timing.what_if(found) is None

    def test_inverted_and_pair_candidates_covered(self):
        # Make sure the property test exercised OS3/IS3 and inversion at
        # least once across a few seeds (guards against silent fast-paths).
        kinds = set()
        for seed in range(6):
            netlist = make_random_netlist(LIB, 6, 20, 3, seed)
            estimator = _estimator(netlist)
            timing = TimingAnalysis(netlist)
            for candidate in generate_candidates(
                estimator, CandidateOptions(max_total=80)
            ):
                sub = candidate.substitution
                predicted = timing.what_if(sub)
                try:
                    trial, _ = apply_to_copy(netlist, sub)
                except (TransformError, NetlistError):
                    assert predicted is None
                    continue
                assert predicted == pytest.approx(
                    TimingAnalysis(trial).circuit_delay, abs=1e-9
                )
                kinds.add((sub.kind, sub.invert1))
        assert len(kinds) >= 3

    # Seeds 110, 112 and 170 rewire the one live branch of a stem whose
    # other branches all lead into dead logic, so the stem dies as well.
    @pytest.mark.parametrize("seed", [*range(0, 60, 4), 110, 112, 170])
    def test_matches_trial_copy_with_dead_logic(self, seed):
        # An input netlist can carry gates that reach no output.  The trial
        # copy's sweep removes them too, except those a move's sources now
        # feed to an output.
        netlist = make_random_netlist(LIB, 6, 20, 3, seed, sweep=False)
        assert netlist.copy().sweep_dead()
        checked = _check_what_if_against_trial_copy(
            netlist, TimingAnalysis(netlist), CandidateOptions(max_total=80)
        )
        assert checked > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_constant_candidates_match_trial_copy(self, seed):
        # The first constant move instantiates a tie gate; the candidates
        # after it reuse that gate.
        netlist = make_random_netlist(LIB, 6, 20, 3, seed)
        options = CandidateOptions(max_total=80, constant_substitution=True)
        for _move in range(2):
            timing = TimingAnalysis(netlist)
            _check_what_if_against_trial_copy(netlist, timing, options)
            constants = [
                c.substitution
                for c in generate_candidates(_estimator(netlist), options)
                if c.substitution.is_constant
            ]
            assert constants
            apply_substitution(netlist, constants[0])


def _check_what_if_against_trial_copy(netlist, timing, options) -> int:
    checked = 0
    for candidate in generate_candidates(_estimator(netlist), options):
        predicted = timing.what_if(candidate.substitution)
        try:
            trial, _ = apply_to_copy(netlist, candidate.substitution)
        except (TransformError, NetlistError):
            assert predicted is None
            continue
        expected = TimingAnalysis(trial).circuit_delay
        assert predicted == pytest.approx(expected, abs=1e-9), str(
            candidate.substitution
        )
        checked += 1
    return checked
