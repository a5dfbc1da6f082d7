"""Behaviour of the builtin passes on the netlist they receive."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.equiv.checker import check_equivalent
from repro.errors import LintError, PipelineError
from repro.library.standard import standard_library
from repro.netlist.blif import parse_blif_file, write_blif
from repro.pipeline import OptimizationContext, PassManager, run_pipeline
from repro.pipeline.passes import (
    DedupePass,
    LintPass,
    PowderPass,
    ResynthPass,
    SweepPass,
    WindowPass,
    available_passes,
    make_pass,
)
from repro.transform.optimizer import OptimizeOptions, power_optimize
from tests.conftest import make_random_netlist

MISEX1 = Path(__file__).resolve().parents[2] / "benchmarks/blif/misex1.blif"


def duplicate_netlist(builder):
    """g2 duplicates g1 exactly (same cell, same fanin order)."""
    a, b = builder.inputs("a", "b")
    g1 = builder.and_(a, b, name="g1")
    g2 = builder.and_(a, b, name="g2")
    builder.output("o1", builder.not_(g1, name="n1"))
    builder.output("o2", builder.not_(g2, name="n2"))
    return builder.build()


class TestDedupePass:
    def test_merges_and_records_pairs(self, builder):
        netlist = duplicate_netlist(builder)
        result = DedupePass().run(netlist, OptimizeOptions(num_patterns=256))
        assert result.changed
        assert result.details["merged"] == 2
        assert netlist.num_gates() == 2


class TestSweepPass:
    def test_removes_dead_gates(self, builder):
        a, b = builder.inputs("a", "b")
        live = builder.and_(a, b, name="live")
        builder.or_(a, b, name="dead")  # feeds nothing
        builder.output("o", live)
        netlist = builder.build()
        result = SweepPass().run(netlist, OptimizeOptions())
        assert result.changed and result.details["removed"] >= 1
        assert "dead" not in {g.name for g in netlist.logic_gates()}


class TestPowderPass:
    def test_unknown_option_rejected_at_construction(self):
        with pytest.raises(PipelineError, match="unknown powder option"):
            PowderPass(turbo=True)

    def test_rejected_override_is_a_pipeline_error_naming_the_stage(
        self, lib
    ):
        with pytest.raises(PipelineError, match=r"^powder\(repeat=-1\): "):
            PowderPass(repeat=-1)
        netlist = make_random_netlist(lib, 5, 14, 2, seed=75)
        with pytest.raises(PipelineError, match="^window: windowed .* delay"):
            WindowPass().run(netlist, OptimizeOptions(delay_slack_percent=0))

    def test_analysis_affecting_override_rebuilds(self, lib, monkeypatch):
        built_with = []
        builder = OptimizationContext._build_probability

        def recorded(self):
            built_with.append(self.options.num_patterns)
            return builder(self)

        monkeypatch.setattr(
            OptimizationContext, "_build_probability", recorded
        )
        netlist = make_random_netlist(lib, 5, 14, 2, seed=75)
        run_pipeline(
            netlist,
            "powder(num_patterns=128, max_rounds=1); powder(max_rounds=1)",
            OptimizeOptions(num_patterns=256),
        )
        assert built_with == [128, 256]

    def test_stage_is_power_optimize_on_the_windowed_engine_too(self):
        options = OptimizeOptions(
            num_patterns=512, windowed=True, window_size=20,
            window_radius=2, max_rounds=2,
        )
        direct = parse_blif_file(MISEX1, standard_library())
        expected = power_optimize(direct, options)
        staged = parse_blif_file(MISEX1, standard_library())
        result = run_pipeline(staged, "powder", options).optimize_result
        assert (len(expected.moves), expected.rounds) == (4, 14)
        assert [str(m.substitution) for m in result.moves] == [
            str(m.substitution) for m in expected.moves
        ]
        assert write_blif(staged) == write_blif(direct)

    def test_runs_engine_over_context(self, lib):
        netlist = make_random_netlist(lib, 5, 16, 2, seed=76)
        outcome = PassManager().run(
            netlist, OptimizeOptions(num_patterns=256, max_rounds=2),
            [PowderPass()],
        )
        result = outcome.passes[0]
        assert result.optimize_result is not None
        assert result.optimize_result.netlist is netlist
        assert result.details["moves"] == len(result.optimize_result.moves)


class TestLintPass:
    def test_clean_netlist_passes(self, lib):
        netlist = make_random_netlist(lib, 5, 14, 2, seed=77)
        result = LintPass().run(netlist, OptimizeOptions())
        assert not result.changed

    def test_structural_corruption_fails_gate(self, lib):
        netlist = make_random_netlist(lib, 5, 14, 2, seed=77)
        gate = next(g for g in netlist.logic_gates() if g.fanouts)
        gate.fanouts.append((gate.fanouts[0][0], 99))  # stale branch
        with pytest.raises(LintError, match="lint gate failed"):
            LintPass().run(netlist, OptimizeOptions())

    def test_probabilities_parameter_reads_the_options_engine(
        self, lib, monkeypatch
    ):
        import repro.lint

        seen = {}
        lint_netlist = repro.lint.lint_netlist

        def recorded(netlist, **kwargs):
            seen.update(kwargs)
            return lint_netlist(netlist, **kwargs)

        monkeypatch.setattr(repro.lint, "lint_netlist", recorded)
        netlist = make_random_netlist(lib, 5, 14, 2, seed=77)
        options = OptimizeOptions(num_patterns=256, seed=5)
        LintPass(probabilities=True).run(netlist, options)
        engine = OptimizationContext(netlist, options).get("probability")
        assert seen["probabilities"] == {
            name: engine.probability(name) for name in netlist.gates
        }


class TestResynthPass:
    def test_mode_validated(self):
        with pytest.raises(PipelineError, match="unknown resynth mode"):
            ResynthPass(mode="fast")

    def test_remap_preserves_function_and_invalidates(self, lib):
        """Later stages work on the remapped netlist, never the old one."""
        netlist = make_random_netlist(lib, 5, 16, 2, seed=79)
        reference = netlist.copy("ref")
        outcome = PassManager().run(
            netlist,
            OptimizeOptions(num_patterns=256, max_rounds=1),
            [ResynthPass(mode="area"), PowderPass()],
        )
        remapped = outcome.passes[0].netlist
        assert remapped is not netlist
        assert outcome.netlist is remapped
        assert outcome.optimize_result.netlist is remapped
        assert check_equivalent(reference, remapped).equal


class TestRegistry:
    def test_catalog_covers_every_builtin(self):
        names = {entry.name for entry in available_passes()}
        assert names == {
            "dedupe",
            "powder",
            "window",
            "sweep",
            "lint",
            "resynth",
            "bdd_resynth",
        }
        for entry in available_passes():
            assert entry.description

    def test_make_pass_unknown_name(self):
        with pytest.raises(PipelineError, match="unknown pass"):
            make_pass("polish")
