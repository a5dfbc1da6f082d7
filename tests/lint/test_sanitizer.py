"""TransformSanitizer: clean runs stay clean and bit-identical; corrupted
incremental state is pinpointed with the right check ID."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LintError
from repro.library.standard import standard_library
from repro.lint import lint_netlist
from repro.netlist.blif import parse_blif_file
from repro.lint.sanitizer import (
    X_FOLLOWED_SIM,
    X_LINT,
    X_PROBABILITY,
    X_TIMING,
)
from repro.transform.optimizer import (
    OptimizeOptions,
    PowerOptimizer,
    power_optimize,
)
from repro.transform.substitution import AppliedSubstitution, Substitution
from tests.conftest import make_random_netlist

LIB = standard_library()
ROOT = Path(__file__).resolve().parents[2]


def _options(**overrides):
    base = dict(num_patterns=512, repeat=8, max_rounds=3)
    base.update(overrides)
    return OptimizeOptions(**base)


def _moves(result):
    return [str(m.substitution) for m in result.moves]


class TestCleanRuns:
    def test_identical_move_sequence(self):
        base = make_random_netlist(LIB, 6, 26, 3, 11)
        plain = power_optimize(base.copy("plain"), _options())
        sanitized = power_optimize(
            base.copy("san"), _options(sanitize=True)
        )
        assert _moves(sanitized) == _moves(plain)
        assert sanitized.final_power == plain.final_power

    def test_reports_are_recorded_and_clean(self):
        base = make_random_netlist(LIB, 6, 26, 3, 11)
        optimizer = PowerOptimizer(base, _options(sanitize=True))
        result = optimizer.run()
        assert len(optimizer.sanitizer.reports) == len(result.moves)
        assert all(not r.diagnostics for r in optimizer.sanitizer.reports)

    def test_sanitized_rd53_run_checks_the_followed_triage(self):
        netlist = parse_blif_file(ROOT / "benchmarks" / "blif" / "rd53.blif", LIB)
        optimizer = PowerOptimizer(netlist, _options(sanitize=True))
        result = optimizer.run()
        assert result.moves
        assert len(optimizer.sanitizer.reports) == len(result.moves)
        assert all(not r.diagnostics for r in optimizer.sanitizer.reports)
        # The triage simulation followed every move instead of rebuilding.
        assert optimizer.triage_checker.followed_state() is not None

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_netlists_lint_clean_after_sanitized_runs(self, seed):
        netlist = make_random_netlist(LIB, 6, 24, 3, seed)
        power_optimize(
            netlist, _options(sanitize=True, num_patterns=256, repeat=5)
        )
        report = lint_netlist(netlist, ignore=["Q003"])
        # Q003 (double inverters) is legal residue of inverted
        # substitutions; everything else must be clean.
        assert report.diagnostics == []


class _Harness:
    """An optimizer paused right after its caches warmed up."""

    def __init__(self, seed=3):
        self.netlist = make_random_netlist(LIB, 6, 26, 3, seed)
        self.optimizer = PowerOptimizer(
            self.netlist, _options(sanitize=True)
        )
        self.pool = self.optimizer.get_candidate_substitutions()
        gate = next(self.netlist.logic_gates())
        fake = Substitution("OS2", gate.name, self.netlist.input_names[0])
        self.applied = AppliedSubstitution(
            substitution=fake,
            added=[],
            removed=[],
            resim_roots=[],
            area_delta=0.0,
        )

    def expect(self, rule_id):
        with pytest.raises(LintError) as excinfo:
            self.optimizer.sanitizer.after_move(self.applied, 1)
        assert excinfo.value.rule_id == rule_id
        assert rule_id in str(excinfo.value)
        assert "OS2" in str(excinfo.value)  # names the offending move
        report = excinfo.value.report
        assert report is not None and report.errors
        return excinfo.value


class TestCorruptionDetection:
    def test_clean_harness_passes(self):
        h = _Harness()
        h.optimizer.sanitizer.after_move(h.applied, 1)  # no raise

    def test_x001_structural_corruption(self):
        h = _Harness()
        gate = next(g for g in h.netlist.logic_gates() if g.fanouts)
        gate.fanouts.append((gate.fanouts[0][0], 99))  # stale branch
        error = h.expect(X_LINT)
        assert "N005" in str(error)

    def test_x002_probability_drift(self):
        h = _Harness()
        engine = h.optimizer.estimator.engine
        name = next(g.name for g in h.netlist.logic_gates())
        engine._probs[name] = 0.123456789
        h.expect(X_PROBABILITY)

    def test_x002_corrupted_simulation_word(self):
        h = _Harness()
        name = next(g.name for g in h.netlist.logic_gates())
        sim = h.optimizer.estimator.engine.sim
        sim.values[name] ^= sim.full
        h.expect(X_PROBABILITY)

    def test_x003_stale_arrival_time(self):
        h = _Harness()
        name = next(g.name for g in h.netlist.logic_gates())
        h.optimizer.timing.arrival[name] += 1.0
        h.expect(X_TIMING)

    def test_x002_value_for_dead_gate(self):
        h = _Harness()
        sim = h.optimizer.estimator.engine.sim
        sim.values["ghost_gate"] = 0
        h.expect(X_PROBABILITY)

    def test_x006_flipped_bit_in_triage_simulation(self):
        h = _Harness()
        h.optimizer.check_candidate(h.pool[0].substitution)
        sim = h.optimizer.triage_checker.followed_state()
        assert sim is not None, "the check builds the triage simulation"
        name = next(g.name for g in h.netlist.logic_gates())
        sim.values[name] ^= 1 << (sim.num_patterns - 1)
        error = h.expect(X_FOLLOWED_SIM)
        assert name in str(error)

    def test_x006_triage_not_told_about_an_edit(self):
        h = _Harness()
        h.optimizer.check_candidate(h.pool[0].substitution)
        h.netlist._invalidate()  # an edit the triage checker never saw
        h.expect(X_FOLLOWED_SIM)

    def test_x006_word_matrix_disagrees_with_int(self):
        h = _Harness()
        h.optimizer.check_candidate(h.pool[0].substitution)
        sim = h.optimizer.triage_checker.followed_state()
        sim.matrix()[-1, 0] ^= np.uint64(1)
        error = h.expect(X_FOLLOWED_SIM)
        assert "triage simulation: cached rows or words" in str(error)
