"""Shared analysis state the pass pipeline schedules work over.

An :class:`OptimizationContext` owns one netlist plus every derived
analysis the passes need — the probability engine, the power estimator,
the delay constraint, static timing, and the candidate workspace (which
rebuilds its own state every round, so edits need not reach it) — under
declared build/invalidate semantics:

- analyses are **built lazily**: ``ctx.get("estimator")`` constructs the
  estimator (and its prerequisite probability engine) on first use and
  returns the cached instance afterwards,
- passes **invalidate only what they dirty**: ``ctx.invalidate("timing")``
  drops the timing analysis and everything depending on it, so the next
  pass that requires it triggers exactly one rebuild,
- ``build_counts`` records every construction, which is how the
  scheduling tests pin "rebuilt exactly once after invalidation".

The dependency graph (an edge means "is built from"):

    probability -> estimator -> workspace
    constraint  -> timing
    triage      (self-contained: permissibility caches keyed on the
                 netlist's structural state)
    analysis    (self-contained: the static fact base, recomputed on
                 the first read after the structural state changes)

Every analysis also depends on the netlist structure; passes that edit
the netlist without maintaining the analyses incrementally declare
``invalidates = ALL_ANALYSES``.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import PipelineError
from repro.netlist.netlist import Netlist
from repro.transform.optimizer import OptimizeOptions

#: Every analysis name the context can build, in build-dependency order.
ALL_ANALYSES = (
    "probability",
    "estimator",
    "constraint",
    "timing",
    "workspace",
    "triage",
    "analysis",
)

#: analysis -> analyses built *from* it (invalidated along with it).
_DEPENDENTS = {
    "probability": ("estimator",),
    "estimator": ("workspace",),
    "constraint": ("timing",),
    "timing": (),
    "workspace": (),
    "triage": (),
    "analysis": (),
}

_UNBUILT = object()


class OptimizationContext:
    """One netlist plus lazily-built shared analyses, passed between passes."""

    def __init__(
        self,
        netlist: Netlist,
        options: Optional[OptimizeOptions] = None,
    ):
        self.netlist = netlist
        self.options = options or OptimizeOptions()
        #: The tracer configured on the options (read by the powder pass).
        self.tracer = self.options.trace
        self._analyses: dict[str, object] = {}
        #: analysis name -> number of times it was constructed.
        self.build_counts: dict[str, int] = {}
        #: Active :class:`~repro.pipeline.manager.PassContract`, installed
        #: by the manager around each pass run when ``options.sanitize``
        #: is set; ``None`` means access is unchecked.
        self._contract = None
        # Builders fetch their prerequisites through ``get`` too; those
        # nested reads are the context's own, not the pass's, so the
        # contract only audits depth-0 calls.
        self._build_depth = 0

    # ------------------------------------------------------------------
    # Build / invalidate protocol
    # ------------------------------------------------------------------
    def get(self, name: str):
        """The analysis ``name``, building it (and prerequisites) lazily."""
        if self._contract is not None and self._build_depth == 0:
            self._contract.check_read(name)
        value = self._analyses.get(name, _UNBUILT)
        if value is _UNBUILT:
            builder = getattr(self, f"_build_{name}", None)
            if builder is None:
                raise PipelineError(f"unknown analysis {name!r}")
            self._build_depth += 1
            try:
                value = builder()
            finally:
                self._build_depth -= 1
            self._analyses[name] = value
            self.build_counts[name] = self.build_counts.get(name, 0) + 1
        return value

    def peek(self, name: str):
        """The analysis if already built, else ``None`` (never builds)."""
        value = self._analyses.get(name, _UNBUILT)
        return None if value is _UNBUILT else value

    def put(self, name: str, value) -> None:
        """Install a pass-maintained instance (e.g. a rebuilt STA)."""
        if name not in ALL_ANALYSES:
            raise PipelineError(f"unknown analysis {name!r}")
        if self._contract is not None:
            self._contract.check_write(name)
        self._analyses[name] = value

    def is_built(self, name: str) -> bool:
        return self._analyses.get(name, _UNBUILT) is not _UNBUILT

    def invalidate(self, *names: str) -> None:
        """Drop the named analyses and, transitively, their dependents."""
        if self._contract is not None:
            # Only the named roots are audited: declaring an invalidation
            # implies its dependents, which cascade below unchecked.
            for name in names:
                self._contract.check_write(name)
        self._drop(*names)

    def _drop(self, *names: str) -> None:
        for name in names:
            if name not in _DEPENDENTS:
                raise PipelineError(f"unknown analysis {name!r}")
            self._analyses.pop(name, None)
            self._drop(*_DEPENDENTS[name])

    def invalidate_all(self) -> None:
        self.invalidate(*ALL_ANALYSES)

    # ------------------------------------------------------------------
    # Builders (one per analysis; construction mirrors the legacy
    # PowerOptimizer.__init__ exactly, so pipelines stay bit-identical)
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

    def _build_analysis(self):
        from repro.analysis.suite import AnalysisSuite

        # Deliberately independent of the run's pattern/seed options:
        # every emitted fact is proven (SAT or exhaustively), so the
        # fact *content* does not depend on the simulation seed — only
        # which candidates get nominated for confirmation does.
        return AnalysisSuite(self.netlist)

    # ------------------------------------------------------------------
    # Convenience accessors (lazy-building)
    # ------------------------------------------------------------------
    @property
    def probability(self):
        return self.get("probability")

    @property
    def estimator(self):
        return self.get("estimator")

    @property
    def constraint(self):
        return self.get("constraint")

    @property
    def timing(self):
        return self.get("timing")

    @property
    def workspace(self):
        return self.get("workspace")

    @property
    def analysis(self):
        """The static fact base (:class:`repro.analysis.AnalysisSuite`)."""
        return self.get("analysis")
