"""PassManager scheduling: requires built, invalidates honored, telemetry."""

from __future__ import annotations

from repro.pipeline import (
    OptimizationContext,
    Pass,
    PassManager,
    PassResult,
    run_pipeline,
)
from repro.transform.optimizer import OptimizeOptions
from tests.conftest import make_random_netlist


class _Probe(Pass):
    """A scripted pass that records what the manager prepared for it."""

    def __init__(self, name, requires=(), invalidates=(), configure_hook=None):
        super().__init__()
        self.name = name
        self.requires = tuple(requires)
        self.invalidates = tuple(invalidates)
        self._configure_hook = configure_hook
        self.seen_built: dict[str, bool] = {}
        self.configured = False

    def configure(self, ctx):
        self.configured = True
        assert not self.seen_built, "configure must precede run"
        if self._configure_hook:
            self._configure_hook(ctx)

    def run(self, ctx):
        self.seen_built = {name: ctx.is_built(name) for name in self.requires}
        return PassResult(self.name, changed=False)


def fresh_context(lib, **options):
    netlist = make_random_netlist(lib, 5, 14, 2, seed=72)
    return OptimizationContext(
        netlist, OptimizeOptions(num_patterns=256, **options)
    )


class TestScheduling:
    def test_requires_built_before_run(self, lib):
        ctx = fresh_context(lib)
        probe = _Probe("probe", requires=("estimator", "timing"))
        PassManager().run(ctx, [probe])
        assert probe.configured
        assert probe.seen_built == {"estimator": True, "timing": True}

    def test_invalidates_applied_after_run(self, lib):
        ctx = fresh_context(lib)
        first = _Probe("first", requires=("workspace",), invalidates=("probability",))
        second = _Probe("second", requires=("timing",))
        PassManager().run(ctx, [first, second])
        # first's invalidation cascaded through estimator and workspace ...
        assert not ctx.is_built("probability")
        assert not ctx.is_built("estimator")
        assert not ctx.is_built("workspace")
        # ... but left the timing chain second relied on alone.
        assert ctx.is_built("timing")

    def test_rebuilt_exactly_once_across_passes(self, lib):
        ctx = fresh_context(lib)
        passes = [
            _Probe("a", requires=("estimator",), invalidates=("probability",)),
            _Probe("b", requires=("estimator",)),
            _Probe("c", requires=("estimator",)),
        ]
        PassManager().run(ctx, passes)
        # One initial build for "a", one rebuild for "b", none for "c".
        assert ctx.build_counts["estimator"] == 2
        assert ctx.build_counts["probability"] == 2

    def test_per_pass_timers_recorded(self, lib):
        ctx = fresh_context(lib)
        outcome = PassManager().run(ctx, [_Probe("alpha"), _Probe("beta")])
        assert [result.name for result in outcome.passes] == ["alpha", "beta"]
        assert all(result.seconds > 0 for result in outcome.passes)

    def test_configure_runs_before_requires_are_built(self, lib):
        ctx = fresh_context(lib)
        seen = {}

        def hook(context):
            seen["estimator_built"] = context.is_built("estimator")

        probe = _Probe("probe", requires=("estimator",), configure_hook=hook)
        PassManager().run(ctx, [probe])
        assert seen == {"estimator_built": False}


class TestPipelineResult:
    def test_run_pipeline_with_spec_string(self, lib):
        netlist = make_random_netlist(lib, 5, 16, 2, seed=73)
        outcome = run_pipeline(
            netlist,
            "dedupe; powder(repeat=5, max_rounds=2); sweep",
            OptimizeOptions(num_patterns=256),
        )
        assert [p.name for p in outcome.passes] == ["dedupe", "powder", "sweep"]
        assert outcome.netlist is netlist
        assert outcome.optimize_result is outcome.passes[1].optimize_result
        assert outcome.optimize_result is not None
        assert outcome.changed == any(p.changed for p in outcome.passes)
        summary = outcome.summary()
        for name in ("dedupe", "powder", "sweep", "total"):
            assert name in summary

    def test_optimize_result_none_without_powder(self, lib):
        netlist = make_random_netlist(lib, 5, 14, 2, seed=74)
        outcome = run_pipeline(netlist, "dedupe; sweep")
        assert outcome.optimize_result is None
