"""One measurement per interval: a run's result reads its registry.

An optimizer run keeps its phase timers, its ``total`` and its rejection
tallies in one :class:`~repro.telemetry.Metrics` registry: the tracer's
when the run is traced, a private one otherwise.  The result, the trace
and the summary therefore report the same figures, and a traced run
reports the same tallies as an untraced one.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.library.standard import standard_library
from repro.netlist.blif import parse_blif_file
from repro.pipeline import run_pipeline
from repro.telemetry import Tracer
from repro.transform.optimizer import OptimizeOptions, power_optimize

RD53 = Path(__file__).resolve().parents[2] / "benchmarks" / "blif" / "rd53.blif"

PHASES = ("candidates", "select", "timing", "atpg", "apply")
REJECTIONS = (
    "rejected_delay",
    "rejected_not_permissible",
    "rejected_aborted",
    "rejected_stale",
)


class TickingClock:
    """Reads one second later at every call."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def _rd53_run(**options):
    netlist = parse_blif_file(RD53, standard_library())
    return power_optimize(netlist, OptimizeOptions(num_patterns=512, **options))


def test_result_times_are_the_trace_timers():
    result = _rd53_run(trace=Tracer(clock=TickingClock()))
    timers = result.trace.timers
    assert list(result.phase_seconds) == list(PHASES)
    for phase in PHASES:
        assert result.phase_seconds[phase] == timers[f"phase.{phase}"]
    assert result.runtime_seconds == timers["total"]
    assert set(timers) == {"total"} | {f"phase.{phase}" for phase in PHASES}

    # Only the registry's timers read the clock, and no phase nests in
    # another, so each phase interval lasts exactly one tick: the phase
    # figures count the intervals, and ``total`` spans all of them.
    phases = result.phase_seconds
    assert phases["candidates"] == result.rounds
    assert phases["apply"] == len(result.moves)
    assert phases["atpg"] == phases["timing"] - result.rejected_delay
    assert result.runtime_seconds == 2 * sum(phases.values()) + 1


@pytest.mark.parametrize("slack", [None, 0.0], ids=["unconstrained", "delay0"])
def test_traced_and_untraced_runs_count_the_same_rejections(slack):
    plain = _rd53_run(delay_slack_percent=slack)
    traced = _rd53_run(delay_slack_percent=slack, trace=Tracer())
    tallies = {name: getattr(plain, name) for name in REJECTIONS}
    assert {name: getattr(traced, name) for name in REJECTIONS} == tallies
    assert any(tallies.values())
    # The trace carries a tally only once it is non-zero.
    counted = {
        name: value
        for name, value in traced.trace.counters.items()
        if name.startswith("rejected_")
    }
    assert counted == {name: value for name, value in tallies.items() if value}
    summary = traced.trace.summary
    assert {name: summary[name] for name in REJECTIONS} == tallies


def test_stages_sharing_a_tracer_report_their_own_runs():
    """A pipeline's powder stages share the options' tracer, which starts
    a fresh trace and registry for each run; each stage's result and
    trace report that stage's run alone."""

    def stages(trace):
        netlist = parse_blif_file(RD53, standard_library())
        outcome = run_pipeline(
            netlist,
            "powder(max_rounds=1); powder",
            OptimizeOptions(num_patterns=512, trace=trace),
        )
        return [stage.optimize_result for stage in outcome.passes]

    plain = stages(None)
    tracer = Tracer(clock=TickingClock())
    traced = stages(tracer)
    assert tracer.trace is traced[-1].trace
    for run, reference in zip(traced, plain):
        for name in REJECTIONS:
            assert getattr(run, name) == getattr(reference, name)
        trace = run.trace
        assert [m.candidate_id for m in trace.moves] == [
            m.substitution.candidate_id() for m in run.moves
        ]
        assert trace.summary["moves"] == len(run.moves)
        assert trace.counters["moves_applied"] == len(run.moves)
        assert trace.timers["total"] == run.runtime_seconds
        assert [r.index for r in trace.rounds] == list(range(1, run.rounds + 1))
