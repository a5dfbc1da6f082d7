"""OptimizationContext: the analyses one engine run builds lazily."""

from __future__ import annotations

import pytest

from repro.errors import PipelineError
from repro.pipeline import OptimizationContext
from repro.transform.optimizer import OptimizeOptions
from tests.conftest import make_random_netlist

ANALYSES = (
    "probability",
    "estimator",
    "constraint",
    "timing",
    "workspace",
    "triage",
)


@pytest.fixture
def ctx(lib):
    netlist = make_random_netlist(lib, 5, 14, 2, seed=71)
    return OptimizationContext(netlist, OptimizeOptions(num_patterns=256))


class TestLazyBuild:
    def test_nothing_built_up_front(self, ctx):
        assert all(ctx.peek(name) is None for name in ANALYSES)

    def test_get_builds_prerequisites(self, ctx):
        estimator = ctx.get("estimator")
        assert ctx.peek("estimator") is estimator
        # built as a prerequisite, and the very engine the estimator reads
        assert ctx.peek("probability") is estimator.engine

    def test_repeated_get_builds_once(self, ctx, monkeypatch):
        builds = []
        for name in ("probability", "estimator", "workspace"):
            builder = getattr(OptimizationContext, f"_build_{name}")

            def counted(self, builder=builder, name=name):
                builds.append(name)
                return builder(self)

            monkeypatch.setattr(OptimizationContext, f"_build_{name}", counted)
        first = ctx.get("workspace")
        assert all(ctx.get("workspace") is first for _ in range(3))
        assert builds == ["workspace", "estimator", "probability"]

    def test_peek_never_builds(self, ctx):
        assert ctx.peek("timing") is None
        assert ctx.peek("timing") is None
        built = ctx.get("timing")
        assert ctx.peek("timing") is built

    def test_constraint_is_none_without_delay_options(self, ctx):
        assert ctx.get("constraint") is None

    def test_constraint_limit_reaches_timing(self, lib):
        netlist = make_random_netlist(lib, 5, 14, 2, seed=71)
        ctx = OptimizationContext(
            netlist, OptimizeOptions(delay_limit=99.0, num_patterns=256)
        )
        assert ctx.get("constraint").limit == 99.0
        assert ctx.get("timing")._limit == 99.0


class TestErrors:
    def test_get_unknown_analysis(self, ctx):
        with pytest.raises(PipelineError, match="unknown analysis 'sta'"):
            ctx.get("sta")
