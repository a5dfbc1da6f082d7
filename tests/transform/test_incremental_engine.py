"""The one optimizer engine (persistent candidate workspace, in-place
STA, copy-free delay checks) re-verifies clean against from-scratch
rebuilds after every move, and the sanitizer catches a broken STA."""

import pytest

from repro.library.standard import standard_library
from repro.transform.optimizer import (
    OptimizeOptions,
    PowerOptimizer,
    power_optimize,
)
from tests.conftest import make_random_netlist

LIB = standard_library()


def _options(**overrides):
    base = dict(num_patterns=512, repeat=8, max_rounds=3)
    base.update(overrides)
    return OptimizeOptions(**base)


def _sanitized_run(seed, **overrides):
    """Optimize with the sanitizer on; no diagnostics."""
    netlist = make_random_netlist(LIB, 6, 26, 3, seed)
    optimizer = PowerOptimizer(netlist, _options(sanitize=True, **overrides))
    result = optimizer.run()
    reports = optimizer.sanitizer.reports
    assert len(reports) == len(result.moves)
    assert [d for report in reports for d in report.diagnostics] == []
    return result


class TestSanitizedRuns:
    """Simulation words, probabilities, STA, observability masks and pair
    tables equal from-scratch rebuilds after every applied move."""

    SEEDS = (3, 13, 29)

    def test_unconstrained(self):
        for seed in self.SEEDS:
            assert _sanitized_run(seed).moves

    def test_delay_constraint(self):
        rejected = 0
        for seed in self.SEEDS:
            result = _sanitized_run(seed, delay_slack_percent=0.0)
            assert result.final_delay <= result.delay_limit + 1e-9
            rejected += result.rejected_delay
        assert rejected > 0  # the what_if check really fired

    def test_delay_objective(self):
        for seed in self.SEEDS:
            result = _sanitized_run(seed, objective="delay")
            assert result.moves
            assert result.final_delay < result.initial_delay


class TestPhaseCounters:
    def test_phase_seconds_populated(self):
        netlist = make_random_netlist(LIB, 6, 22, 3, seed=3)
        result = power_optimize(netlist, _options())
        assert list(result.phase_seconds) == [
            "candidates",
            "select",
            "timing",
            "atpg",
            "apply",
        ]
        assert all(v >= 0.0 for v in result.phase_seconds.values())
        assert result.phase_seconds["candidates"] > 0.0

    def test_summary_prints_phases(self):
        netlist = make_random_netlist(LIB, 6, 22, 3, seed=3)
        result = power_optimize(netlist, _options())
        assert "phases:" in result.summary()
        assert "candidates" in result.summary()


class TestSelfCheck:
    def test_self_check_verifies_sta(self, monkeypatch):
        from repro.errors import LintError
        from repro.timing.analysis import TimingAnalysis

        netlist = make_random_netlist(LIB, 6, 24, 3, seed=5)
        # Sabotage the incremental update: the sanitizer's exact STA
        # comparison against a rebuild (X003) must catch it.
        original = TimingAnalysis.update_after_edit

        def broken(self, roots):
            original(self, roots)
            if self.arrival:
                name = next(iter(self.arrival))
                self.arrival[name] += 1.0

        monkeypatch.setattr(TimingAnalysis, "update_after_edit", broken)
        with pytest.raises(LintError, match="X003") as excinfo:
            power_optimize(netlist, _options(sanitize=True))
        assert excinfo.value.rule_id == "X003"
