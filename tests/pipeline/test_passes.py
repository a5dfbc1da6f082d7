"""Behaviour of the builtin passes over a shared context."""

from __future__ import annotations

import pytest

from repro.equiv.checker import check_equivalent
from repro.errors import LintError, PipelineError
from repro.pipeline import (
    ALL_ANALYSES,
    OptimizationContext,
    PassManager,
)
from repro.pipeline.passes import (
    DedupePass,
    LintPass,
    PowderPass,
    ResynthPass,
    SanitizePass,
    SweepPass,
    available_passes,
    make_pass,
)
from repro.transform.optimizer import OptimizeOptions
from tests.conftest import make_random_netlist


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
        ctx = OptimizationContext(netlist, OptimizeOptions(num_patterns=256))
        result = DedupePass().run(ctx)
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
        ctx = OptimizationContext(netlist)
        result = SweepPass().run(ctx)
        assert result.changed and result.details["removed"] >= 1
        assert "dead" not in {g.name for g in netlist.logic_gates()}


class TestPowderPass:
    def test_unknown_option_rejected_at_construction(self):
        with pytest.raises(PipelineError, match="unknown powder option"):
            PowderPass(turbo=True)

    def test_analysis_affecting_override_rebuilds(self, lib):
        netlist = make_random_netlist(lib, 5, 14, 2, seed=75)
        ctx = OptimizationContext(netlist, OptimizeOptions(num_patterns=256))
        ctx.get("estimator")
        PowderPass(num_patterns=128).configure(ctx)
        assert ctx.options.num_patterns == 128
        assert not ctx.is_built("probability")
        assert not ctx.is_built("estimator")

    def test_behavioural_override_keeps_analyses(self, lib):
        netlist = make_random_netlist(lib, 5, 14, 2, seed=75)
        ctx = OptimizationContext(netlist, OptimizeOptions(num_patterns=256))
        ctx.get("estimator")
        PowderPass(repeat=3).configure(ctx)
        assert ctx.options.repeat == 3
        assert ctx.is_built("estimator")  # repeat doesn't change construction

    def test_runs_engine_over_context(self, lib):
        netlist = make_random_netlist(lib, 5, 16, 2, seed=76)
        ctx = OptimizationContext(
            netlist, OptimizeOptions(num_patterns=256, max_rounds=2)
        )
        stage = PowderPass()
        outcome = PassManager().run(ctx, [stage])
        result = outcome.passes[0]
        assert result.optimize_result is not None
        assert result.details["moves"] == len(result.optimize_result.moves)


class TestLintPass:
    def test_clean_netlist_passes(self, lib):
        netlist = make_random_netlist(lib, 5, 14, 2, seed=77)
        ctx = OptimizationContext(netlist)
        result = LintPass().run(ctx)
        assert not result.changed

    def test_structural_corruption_fails_gate(self, lib):
        netlist = make_random_netlist(lib, 5, 14, 2, seed=77)
        gate = next(g for g in netlist.logic_gates() if g.fanouts)
        gate.fanouts.append((gate.fanouts[0][0], 99))  # stale branch
        ctx = OptimizationContext(netlist)
        with pytest.raises(LintError, match="lint gate failed"):
            LintPass().run(ctx)

    def test_probabilities_parameter_adds_requirement(self):
        assert LintPass().requires == ()
        assert LintPass(probabilities=True).requires == ("probability",)


class TestSanitizePass:
    def test_checks_scale_with_built_analyses(self, lib):
        netlist = make_random_netlist(lib, 5, 14, 2, seed=78)
        ctx = OptimizationContext(netlist, OptimizeOptions(num_patterns=256))
        assert SanitizePass().run(ctx).details["checked"] == "lint"
        ctx.get("estimator")
        assert (
            SanitizePass().run(ctx).details["checked"] == "lint,probability"
        )
        ctx.get("timing")
        ctx.get("workspace")
        assert (
            SanitizePass().run(ctx).details["checked"]
            == "lint,probability,timing"
        )

    def test_corrupted_probability_detected(self, lib):
        netlist = make_random_netlist(lib, 5, 14, 2, seed=78)
        ctx = OptimizationContext(netlist, OptimizeOptions(num_patterns=256))
        engine = ctx.estimator.engine
        name = next(g.name for g in netlist.logic_gates())
        engine._probs[name] = 0.123456789
        with pytest.raises(LintError, match="sanitize pass"):
            SanitizePass().run(ctx)

    def test_corrupted_timing_detected(self, lib):
        netlist = make_random_netlist(lib, 5, 14, 2, seed=78)
        ctx = OptimizationContext(netlist, OptimizeOptions(num_patterns=256))
        name = next(g.name for g in netlist.logic_gates())
        ctx.timing.arrival[name] += 1.0
        with pytest.raises(LintError, match="sanitize pass"):
            SanitizePass().run(ctx)


class TestResynthPass:
    def test_mode_validated(self):
        with pytest.raises(PipelineError, match="unknown resynth mode"):
            ResynthPass(mode="fast")

    def test_remap_preserves_function_and_invalidates(self, lib):
        netlist = make_random_netlist(lib, 5, 16, 2, seed=79)
        reference = netlist.copy("ref")
        ctx = OptimizationContext(netlist, OptimizeOptions(num_patterns=256))
        ctx.get("workspace")
        ctx.get("timing")
        PassManager().run(ctx, [ResynthPass(mode="area")])
        assert ctx.netlist is not netlist
        assert check_equivalent(reference, ctx.netlist).equal
        assert not any(ctx.is_built(name) for name in ALL_ANALYSES)


class TestRegistry:
    def test_catalog_covers_every_builtin(self):
        names = {entry.name for entry in available_passes()}
        assert names == {
            "dedupe",
            "powder",
            "window",
            "sweep",
            "lint",
            "sanitize",
            "resynth",
            "bdd_resynth",
        }
        for entry in available_passes():
            assert entry.description

    def test_make_pass_unknown_name(self):
        with pytest.raises(PipelineError, match="unknown pass"):
            make_pass("polish")
