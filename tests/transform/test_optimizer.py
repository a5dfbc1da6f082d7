"""Tests for the POWDER optimization loop (Figure 5)."""

from pathlib import Path

import pytest

import repro.transform.optimizer as optimizer_module
from repro.equiv.checker import check_equivalent
from repro.errors import TransformError
from repro.netlist.blif import parse_blif_file
from repro.netlist.verify import check_netlist
from repro.power.estimate import PowerEstimator
from repro.power.probability import SimulationProbability
from repro.telemetry import Tracer
from repro.timing.analysis import TimingAnalysis
from repro.transform.candidates import Candidate
from repro.transform.gain import GainBreakdown
from repro.transform.optimizer import (
    OptimizeOptions,
    PowerOptimizer,
    power_optimize,
)
from repro.transform.substitution import IS2, OS2, Substitution
from tests.conftest import make_random_netlist

BLIF_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "blif"


def quick_options(**overrides):
    base = dict(num_patterns=1024, repeat=10, max_rounds=3)
    base.update(overrides)
    return OptimizeOptions(**base)


class TestFigure2:
    def test_finds_paper_move(self, figure2):
        result = power_optimize(figure2, quick_options(sanitize=True))
        kinds = [(m.substitution.kind, m.substitution.source1) for m in result.moves]
        assert (IS2, "e") in kinds

    def test_power_reduced(self, figure2):
        result = power_optimize(figure2, quick_options())
        assert result.final_power < result.initial_power
        assert result.power_reduction_percent > 0

    def test_measured_matches_estimator(self, figure2):
        result = power_optimize(figure2, quick_options())
        total_gain = sum(m.measured_power_gain for m in result.moves)
        assert result.initial_power - result.final_power == pytest.approx(
            total_gain
        )


class TestInvariants:
    @pytest.mark.parametrize("seed", [51, 52, 53])
    def test_equivalence_preserved(self, lib, seed):
        nl = make_random_netlist(lib, 6, 16, 3, seed=seed)
        reference = nl.copy("ref")
        power_optimize(nl, quick_options(sanitize=True))
        check_netlist(nl)
        assert check_equivalent(reference, nl).equal

    @pytest.mark.parametrize("seed", [54, 55])
    def test_every_move_reduced_power(self, lib, seed):
        nl = make_random_netlist(lib, 6, 16, 3, seed=seed)
        result = power_optimize(nl, quick_options())
        for move in result.moves:
            assert move.measured_power_gain > 0, str(move.substitution)

    def test_predicted_equals_measured(self, lib):
        nl = make_random_netlist(lib, 6, 16, 3, seed=56)
        result = power_optimize(nl, quick_options())
        for move in result.moves:
            assert move.predicted.total == pytest.approx(
                move.measured_power_gain, rel=1e-6, abs=1e-9
            )

    def test_final_metrics_consistent(self, lib):
        nl = make_random_netlist(lib, 6, 16, 3, seed=57)
        result = power_optimize(nl, quick_options())
        est = PowerEstimator(
            nl,
            SimulationProbability(nl, num_patterns=1024, seed=2024),
        )
        assert result.final_power == pytest.approx(est.total())
        assert result.final_area == pytest.approx(nl.total_area())


class TestDelayConstraints:
    @pytest.mark.parametrize("seed", [61, 62])
    def test_zero_slack_never_increases_delay(self, lib, seed):
        nl = make_random_netlist(lib, 6, 18, 3, seed=seed)
        initial_delay = TimingAnalysis(nl).circuit_delay
        result = power_optimize(
            nl, quick_options(delay_slack_percent=0.0)
        )
        assert result.final_delay <= initial_delay + 1e-9
        assert result.delay_limit == pytest.approx(initial_delay)

    def test_slack_allows_more_reduction(self, lib):
        base = make_random_netlist(lib, 6, 20, 3, seed=63)
        tight = power_optimize(
            base.copy("t"), quick_options(delay_slack_percent=0.0)
        )
        loose = power_optimize(
            base.copy("l"), quick_options(delay_slack_percent=200.0)
        )
        assert loose.final_power <= tight.final_power + 1e-9

    def test_absolute_delay_limit(self, figure2):
        limit = TimingAnalysis(figure2).circuit_delay * 2
        result = power_optimize(figure2, quick_options(delay_limit=limit))
        assert TimingAnalysis(figure2).circuit_delay <= limit + 1e-9


class TestOptions:
    def test_max_moves(self, lib):
        nl = make_random_netlist(lib, 6, 20, 3, seed=64)
        result = power_optimize(nl, quick_options(max_moves=2))
        assert len(result.moves) <= 2

    def test_max_rounds(self, lib):
        nl = make_random_netlist(lib, 6, 20, 3, seed=65)
        result = power_optimize(nl, quick_options(max_rounds=1))
        assert result.rounds <= 1

    def test_kwargs_api(self, figure2):
        result = power_optimize(figure2, num_patterns=512, max_rounds=2)
        assert result.netlist is figure2

    def test_kwargs_and_options_conflict(self, figure2):
        with pytest.raises(TypeError):
            power_optimize(figure2, quick_options(), repeat=3)

    def test_summary_renders(self, figure2):
        result = power_optimize(figure2, quick_options())
        text = result.summary()
        assert "power" in text and "moves" in text

    def test_optimizer_reusable_components(self, figure2):
        opt = PowerOptimizer(figure2, quick_options())
        pool = opt.get_candidate_substitutions()
        assert pool
        good = opt.select_power_red_subst(pool)
        assert good is not None
        assert good.gain.includes_pg_c
        assert opt.check_delay(good.substitution)


class TestGainMemo:
    def test_no_substitution_scored_twice_between_moves(
        self, lib, monkeypatch
    ):
        # rd53 at 0 % slack: most winners fail the delay check, so the
        # same short-list comes up again and again before the next move.
        scored_since_move: list[set] = [set()]
        full_gain = optimizer_module.full_gain
        apply_substitution = optimizer_module.apply_substitution

        def counting_full_gain(estimator, substitution):
            assert substitution not in scored_since_move[-1], (
                f"{substitution} scored twice between moves"
            )
            scored_since_move[-1].add(substitution)
            return full_gain(estimator, substitution)

        def apply_and_start_epoch(netlist, substitution):
            scored_since_move.append(set())
            return apply_substitution(netlist, substitution)

        monkeypatch.setattr(optimizer_module, "full_gain", counting_full_gain)
        monkeypatch.setattr(
            optimizer_module, "apply_substitution", apply_and_start_epoch
        )
        netlist = parse_blif_file(BLIF_DIR / "rd53.blif", lib)
        tracer = Tracer()
        result = power_optimize(
            netlist,
            OptimizeOptions(
                num_patterns=512, delay_slack_percent=0, trace=tracer
            ),
        )
        assert len(result.moves) == 9
        assert len(scored_since_move) == len(result.moves) + 1
        assert (result.rejected_delay, result.rejected_stale) == (1221, 130)
        evaluations = sum(len(epoch) for epoch in scored_since_move)
        examined = result.trace.counters["shortlist_evaluations"]
        assert evaluations < examined

    def test_memoized_transform_error_counts_as_stale_every_time(
        self, figure2, monkeypatch
    ):
        stub = Substitution(OS2, "f", "e")
        calls = []

        def raising_full_gain(estimator, substitution):
            calls.append(substitution)
            raise TransformError("stub candidate cannot be scored")

        monkeypatch.setattr(optimizer_module, "full_gain", raising_full_gain)
        tracer = Tracer()
        optimizer = PowerOptimizer(figure2, quick_options(trace=tracer))
        for examined in (1, 2, 3):
            pool = [Candidate(stub, GainBreakdown(pg_a=1.0, pg_b=0.0))]
            assert optimizer.select_power_red_subst(pool) is None
            assert optimizer.rejected_stale == examined
            assert tracer.metrics.counters()["rejected_stale"] == examined
        assert calls == [stub]
