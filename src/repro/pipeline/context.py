"""The analyses one engine run builds over its netlist.

An :class:`OptimizationContext` belongs to one
:class:`~repro.transform.optimizer.PowerOptimizer` run: it holds the
run's netlist and options and builds each derived analysis — the
probability engine, the power estimator, the delay constraint, static
timing, the candidate workspace and the triage checker — the first time
the run asks for it (``ctx.get("estimator")``), keeping the instance for
the rest of the run.  The run maintains those instances incrementally as
it edits the netlist; nothing outlives it, so a pipeline's next stage
builds its own from the netlist it receives.

The builders (an edge means "is built from"):

    probability -> estimator -> workspace
    constraint  -> timing
    triage      (self-contained: permissibility caches keyed on the
                 netlist's structural state)
"""

from __future__ import annotations

from typing import Optional

from repro.errors import PipelineError
from repro.netlist.netlist import Netlist
from repro.transform.optimizer import OptimizeOptions


class OptimizationContext:
    """One netlist, its options, and the analyses built over them."""

    def __init__(
        self,
        netlist: Netlist,
        options: Optional[OptimizeOptions] = None,
    ):
        self.netlist = netlist
        self.options = options or OptimizeOptions()
        self._analyses: dict[str, object] = {}

    def get(self, name: str):
        """The analysis ``name``, building it (and prerequisites) lazily."""
        try:
            return self._analyses[name]
        except KeyError:
            pass
        builder = getattr(self, f"_build_{name}", None)
        if builder is None:
            raise PipelineError(f"unknown analysis {name!r}")
        value = self._analyses[name] = builder()
        return value

    def peek(self, name: str):
        """The analysis if already built, else ``None`` (never builds)."""
        return self._analyses.get(name)

    # ------------------------------------------------------------------
    # Builders (one per analysis)
    # ------------------------------------------------------------------
    def _build_probability(self):
        opts = self.options
        if opts.input_temporal_specs is not None:
            from repro.power.temporal import TemporalSimulationProbability

            return TemporalSimulationProbability(
                self.netlist,
                num_patterns=opts.num_patterns,
                seed=opts.seed,
                input_specs=opts.input_temporal_specs,
            )
        from repro.power.probability import SimulationProbability

        return SimulationProbability(
            self.netlist,
            num_patterns=opts.num_patterns,
            seed=opts.seed,
            input_probs=opts.input_probs,
        )

    def _build_estimator(self):
        from repro.power.estimate import PowerEstimator

        return PowerEstimator(self.netlist, self.get("probability"))

    def _build_constraint(self):
        from repro.timing.constraints import DelayConstraint

        opts = self.options
        if opts.delay_limit is not None:
            return DelayConstraint(opts.delay_limit)
        if opts.delay_slack_percent is not None:
            return DelayConstraint.from_netlist(
                self.netlist, opts.delay_slack_percent
            )
        return None

    def _build_timing(self):
        from repro.timing.analysis import TimingAnalysis

        constraint = self.get("constraint")
        return TimingAnalysis(
            self.netlist, constraint.limit if constraint else None
        )

    def _build_workspace(self):
        from repro.transform.candidates import CandidateWorkspace

        return CandidateWorkspace(self.get("estimator"))

    def _build_triage(self):
        from repro.transform.permissible import TriageChecker

        return TriageChecker(self.netlist)
