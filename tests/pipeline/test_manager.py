"""PassManager: stages see the previous stage's netlist and the options."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro.library.standard import standard_library
from repro.netlist.blif import parse_blif_file
from repro.pipeline import (
    OptimizationContext,
    Pass,
    PassManager,
    PassResult,
    run_pipeline,
)
from repro.transform.optimizer import OptimizeOptions, power_optimize
from tests.conftest import make_random_netlist

BLIF_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "blif"


class _Probe(Pass):
    """A scripted pass that records what the manager handed it."""

    def __init__(self, name, replacement=None):
        super().__init__()
        self.name = name
        self.replacement = replacement
        self.seen = None

    def run(self, netlist, options):
        self.seen = (netlist, options)
        return PassResult(self.name, netlist=self.replacement)


class TestScheduling:
    def test_per_pass_timers_recorded(self, lib):
        netlist = make_random_netlist(lib, 5, 14, 2, seed=72)
        outcome = PassManager().run(
            netlist, OptimizeOptions(), [_Probe("alpha"), _Probe("beta")]
        )
        assert [result.name for result in outcome.passes] == ["alpha", "beta"]
        assert all(result.seconds > 0 for result in outcome.passes)

    def test_stages_receive_the_netlist_the_previous_stage_left(self, lib):
        netlist = make_random_netlist(lib, 5, 14, 2, seed=72)
        replacement = netlist.copy("replacement")
        options = OptimizeOptions(num_patterns=256)
        first = _Probe("first", replacement=replacement)
        second = _Probe("second")
        outcome = PassManager().run(netlist, options, [first, second])
        assert first.seen == (netlist, options)
        assert second.seen[0] is replacement
        assert second.seen[1] is options
        assert outcome.netlist is replacement

    def test_rebuilt_exactly_once_across_passes(self, lib, monkeypatch):
        """Each powder stage builds its probability engine and estimator
        once, in its own context over the netlist it received: nothing is
        rebuilt within a stage and nothing carries over to the next."""
        builds = {"probability": [], "estimator": []}
        for name, contexts in builds.items():
            builder = getattr(OptimizationContext, f"_build_{name}")

            def recorded(self, builder=builder, contexts=contexts):
                contexts.append(self)
                return builder(self)

            monkeypatch.setattr(
                OptimizationContext, f"_build_{name}", recorded
            )
        netlist = make_random_netlist(lib, 5, 14, 2, seed=72)
        outcome = run_pipeline(
            netlist,
            "powder(max_rounds=1); dedupe; powder(max_rounds=1); "
            "powder(max_rounds=1)",
            OptimizeOptions(num_patterns=256),
        )
        stage_inputs = [
            stage.optimize_result.netlist
            for stage in outcome.passes
            if stage.optimize_result is not None
        ]
        for contexts in builds.values():
            assert len(contexts) == 3
            assert len({id(ctx) for ctx in contexts}) == 3
            assert [ctx.netlist for ctx in contexts] == stage_inputs
        assert builds["probability"] == builds["estimator"]


def _golden(name):
    return parse_blif_file(BLIF_DIR / f"{name}.blif", standard_library())


def _stages(name, options):
    outcome = run_pipeline(
        _golden(name), "powder(max_rounds=1); powder", options
    )
    return [stage.optimize_result for stage in outcome.passes]


class TestStageSemantics:
    def test_stage_overrides_end_with_the_stage(self):
        """The second stage is a fresh run with the pipeline's options on
        the first stage's output: the first stage's ``max_rounds=1`` does
        not reach it."""
        options = OptimizeOptions(num_patterns=512)
        first, second = _stages("rd53", options)
        assert first.rounds == 1
        reference = _golden("rd53")
        power_optimize(reference, replace(options, max_rounds=1))
        fresh = power_optimize(reference, options)
        assert [str(m.substitution) for m in second.moves] == [
            str(m.substitution) for m in fresh.moves
        ]
        assert (len(second.moves), second.rounds) == (30, 5)
        assert second.final_power == fresh.final_power

    def test_stage_slack_is_measured_on_the_stage_input(self):
        options = OptimizeOptions(num_patterns=512, delay_slack_percent=0.0)
        first, second = _stages("misex1", options)
        assert first.delay_limit == first.initial_delay
        assert second.initial_delay == first.final_delay
        assert second.delay_limit == first.final_delay == pytest.approx(21.5)
        assert second.final_delay <= second.delay_limit


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
