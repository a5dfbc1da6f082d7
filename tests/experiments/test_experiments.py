"""Tests for the table/figure experiment harnesses (reduced effort)."""

import pytest

from repro.experiments.common import (
    QUICK_CONFIG,
    ExperimentConfig,
    initial_metrics,
    run_circuit,
)
from repro.experiments.figure6 import format_figure6, run_figure6
from repro.experiments.table1 import Table1Row, format_table1, run_table1
from repro.experiments.table2 import (
    PAPER_POWER_SHARES,
    format_table2,
    run_table2,
    table2_from_runs,
)
from repro.transform.optimizer import OptimizeOptions

TINY = ExperimentConfig(
    optimize=OptimizeOptions(
        num_patterns=512, repeat=6, max_rounds=2, max_moves=6
    )
)


@pytest.fixture(scope="module")
def table1_result():
    return run_table1(["rd53", "sqrt8"], TINY)


class TestRunCircuit:
    def test_runs_both_modes(self):
        run = run_circuit("sqrt8", TINY)
        assert run.unconstrained is not None
        assert run.constrained is not None
        assert run.initial_power > 0
        assert run.cpu_seconds > 0

    def test_constrained_respects_delay(self):
        run = run_circuit("rd53", TINY, unconstrained=False)
        assert run.constrained.final_delay <= run.initial_delay + 1e-9

    def test_modes_can_be_skipped(self):
        run = run_circuit("sqrt8", TINY, constrained=False)
        assert run.constrained is None

    def test_protocol_defaults(self):
        """The paper protocol: 2048 patterns, seed 2024, ``repeat`` 25 and
        at most 20 rounds per run."""
        options = ExperimentConfig().optimize
        assert (
            options.num_patterns, options.seed, options.repeat,
            options.max_rounds, options.max_moves,
        ) == (2048, 2024, 25, 20, None)

    def test_initial_metrics_positive(self, lib):
        from repro.bench.suite import build_benchmark

        nl = build_benchmark("sqrt8", lib)
        power, area, delay = initial_metrics(nl, TINY)
        assert power > 0 and area > 0 and delay > 0


class TestTable1:
    def test_rows_and_totals(self, table1_result):
        assert len(table1_result.rows) == 2
        assert table1_result.total_initial_power == pytest.approx(
            sum(r.initial_power for r in table1_result.rows)
        )
        # Optimization never increases power.
        assert table1_result.total_unc_power <= table1_result.total_initial_power
        assert table1_result.unc_power_reduction_pct >= 0

    def test_formatting(self, table1_result):
        text = format_table1(table1_result)
        assert "rd53" in text
        assert "reduction%" in text
        assert "paper" in text

    def test_row_from_run(self):
        run = run_circuit("sqrt8", TINY)
        row = Table1Row.from_run(run)
        assert row.circuit == "sqrt8"
        assert row.unc_power <= row.initial_power


class TestTable2:
    def test_from_runs(self, table1_result):
        result = table2_from_runs(table1_result.runs)
        shares = [result.power_share_pct(k) for k in PAPER_POWER_SHARES]
        if result.total_power_gain > 0:
            assert sum(shares) == pytest.approx(100.0)

    def test_formatting(self, table1_result):
        result = table2_from_runs(table1_result.runs)
        text = format_table2(result)
        assert "OS2" in text and "paper" in text

    def test_run_table2_reuses(self, table1_result):
        result = run_table2(table1=table1_result)
        assert result.stats


class TestFigure6:
    def test_sweep_monotone_constraints(self):
        result = run_figure6(
            circuits=["rd53"], slack_percents=(0, 100), config=TINY
        )
        assert len(result.points) == 2
        p0, p100 = result.points
        # Looser constraint can only help (same greedy, more freedom) —
        # allow tiny noise from the greedy order.
        assert p100.relative_power <= p0.relative_power + 0.05
        # Delay never exceeds its constraint.
        assert p0.relative_delay <= 1.0 + 1e-9
        assert p100.relative_delay <= 2.0 + 1e-9

    def test_formatting(self):
        result = run_figure6(
            circuits=["sqrt8"], slack_percents=(0,), config=TINY
        )
        text = format_figure6(result)
        assert "trade-off" in text
        assert "+0%" in text or "+  0%" in text or "0%" in text
