"""First-class optimization passes and the pass registry.

Each :class:`Pass` is a small, composable unit of work over a shared
:class:`~repro.pipeline.context.OptimizationContext`:

- ``requires`` names the analyses the pass reads — the
  :class:`~repro.pipeline.manager.PassManager` (re)builds them lazily
  before ``run``,
- ``invalidates`` names the analyses the pass dirties — the manager
  drops them (and their dependents) afterwards, so the next consumer
  pays exactly one rebuild,
- ``run(ctx)`` does the work and reports a :class:`PassResult`.

Builtin passes (see :func:`available_passes` / ``powder pipeline run
--list-passes``):

``dedupe``
    Merge structurally identical gates to a fixed point (the
    unconditional, always-permissible sweep of
    :mod:`repro.transform.dedupe`).
``powder``
    The paper's Figure-5 substitution round loop, parameterized by any
    :class:`~repro.transform.optimizer.OptimizeOptions` field —
    ``powder(repeat=25, objective=power)`` — with the objective resolved
    through the pluggable cost-model registry.
``sweep``
    Remove gates feeding neither a primary output nor another live gate.
``lint``
    Run the :mod:`repro.lint` rule pack; fails the pipeline at a
    configurable severity.
``sanitize``
    Cross-check every *built* analysis in the context against a
    from-scratch rebuild (the pipeline-level variant of the per-move
    :class:`~repro.lint.sanitizer.TransformSanitizer`).
``resynth``
    Adapter over the :mod:`repro.synth` flow: un-map to the AND2/INV
    subject graph and technology-map again (``mode=power|area|delay``).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

from repro.errors import LintError, PipelineError
from repro.pipeline.context import ALL_ANALYSES, OptimizationContext
from repro.transform.optimizer import OptimizeOptions, PowerOptimizer

#: OptimizeOptions fields whose value determines how analyses are
#: *constructed*; a powder override of one of these must rebuild the
#: affected analysis roots before the engine runs.
_ANALYSIS_OPTION_ROOTS = {
    "num_patterns": ("probability",),
    "seed": ("probability",),
    "input_probs": ("probability",),
    "input_temporal_specs": ("probability",),
    "delay_limit": ("constraint",),
    "delay_slack_percent": ("constraint",),
}


@dataclass
class PassResult:
    """What one pass did to the context."""

    name: str
    #: Whether the pass changed the netlist.
    changed: bool = False
    #: Wall-clock seconds (filled in by the manager).
    seconds: float = 0.0
    #: Pass-specific counters (moves applied, gates merged, ...).
    details: dict = field(default_factory=dict)
    #: The full :class:`~repro.transform.optimizer.OptimizeResult` when
    #: the pass ran the optimization engine; ``None`` otherwise.
    optimize_result: Optional[object] = None

    def summary(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.details.items())
        state = "changed" if self.changed else "clean"
        return f"{self.name:10s} {self.seconds:7.2f}s  {state:7s}  {parts}"


class Pass:
    """One composable unit of work over an :class:`OptimizationContext`."""

    #: Registry key; also the stage name in pipeline specs.
    name: str = "?"
    #: Analyses built before :meth:`run` (in declaration order).
    requires: tuple[str, ...] = ()
    #: Analyses dropped after :meth:`run` (dependents cascade).
    invalidates: tuple[str, ...] = ()
    #: Analyses the pass reads or updates *itself* — lazily, optionally,
    #: or incrementally — without the manager's pre-build/invalidate
    #: help.  Purely a contract declaration (see
    #: :class:`~repro.pipeline.manager.PassContract`); the manager never
    #: acts on it.
    maintains: tuple[str, ...] = ()

    def __init__(self, **params):
        #: The constructor kwargs, kept for spec round-tripping.
        self.params = params

    def configure(self, ctx: OptimizationContext) -> None:
        """Adjust the context before the manager builds ``requires``."""

    def run(self, ctx: OptimizationContext) -> PassResult:
        raise NotImplementedError

    def spec(self) -> str:
        """The pipeline-spec stage recreating this pass."""
        from repro.pipeline.spec import format_stage

        return format_stage(self.name, self.params)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Pass {self.spec()}>"


class DedupePass(Pass):
    """Merge structurally identical gates (same cell, same fanins)."""

    name = "dedupe"
    invalidates = ALL_ANALYSES

    def run(self, ctx: OptimizationContext) -> PassResult:
        from repro.transform.dedupe import merge_duplicate_gates

        pairs = merge_duplicate_gates(ctx.netlist)
        return PassResult(
            self.name, changed=bool(pairs), details={"merged": len(pairs)}
        )


class SweepPass(Pass):
    """Remove dead gates (no path to any primary output)."""

    name = "sweep"
    invalidates = ALL_ANALYSES

    def run(self, ctx: OptimizationContext) -> PassResult:
        removed = ctx.netlist.sweep_dead()
        return PassResult(
            self.name, changed=bool(removed), details={"removed": len(removed)}
        )


class PowderPass(Pass):
    """The Figure-5 substitution round loop over the shared context.

    Keyword parameters override the corresponding
    :class:`~repro.transform.optimizer.OptimizeOptions` fields for this
    stage, e.g. ``powder(repeat=25, objective=power)``; unset fields
    inherit the context's options.  The engine maintains its required
    analyses incrementally, so the pass invalidates nothing.
    """

    name = "powder"
    requires = ("estimator", "timing")
    invalidates = ()
    # The engine builds, reads, and incrementally updates the context
    # analyses it uses itself (workspace, triage...), and the fact base
    # refreshes on its next read, so the full set is contract-legal
    # without manager involvement.
    maintains = ALL_ANALYSES

    def __init__(self, **overrides):
        valid = {f.name for f in fields(OptimizeOptions)}
        unknown = set(overrides) - valid
        if unknown:
            raise PipelineError(
                f"unknown powder option(s) {sorted(unknown)}; valid "
                f"options are the OptimizeOptions fields"
            )
        super().__init__(**overrides)

    def configure(self, ctx: OptimizationContext) -> None:
        if not self.params:
            return
        effective = replace(ctx.options, **self.params)
        # An override that changes how an analysis is *built* must force
        # a rebuild; otherwise keep whatever prior passes left valid.
        for option_name, roots in _ANALYSIS_OPTION_ROOTS.items():
            if getattr(effective, option_name) != getattr(
                ctx.options, option_name
            ):
                ctx.invalidate(*roots)
        ctx.options = effective
        ctx.tracer = effective.trace

    def run(self, ctx: OptimizationContext) -> PassResult:
        result = PowerOptimizer(context=ctx).run()
        return PassResult(
            self.name,
            changed=bool(result.moves),
            details={
                "moves": len(result.moves),
                "rounds": result.rounds,
                "power": round(result.final_power, 6),
            },
            optimize_result=result,
        )


class WindowPass(Pass):
    """Windowed POWDER for large netlists (:mod:`repro.transform.windowed`).

    Partitions the netlist into TFI/TFO windows, optimizes them in
    conflict-free generations on a ``multiprocessing`` pool, and merges
    each generation's move lists.  Keyword parameters override
    :class:`OptimizeOptions` fields, e.g. ``window(jobs=4,
    window_size=120)``; ``windowed=True`` is implied.  The details count
    the windows by status and the ``generations`` they ran in.  The merge
    edits the netlist outside the context's incremental machinery, so
    every analysis is invalidated afterwards.
    """

    name = "window"
    invalidates = ALL_ANALYSES

    def __init__(self, **overrides):
        valid = {f.name for f in fields(OptimizeOptions)}
        unknown = set(overrides) - valid
        if unknown:
            raise PipelineError(
                f"unknown window option(s) {sorted(unknown)}; valid "
                f"options are the OptimizeOptions fields"
            )
        super().__init__(**overrides)

    def run(self, ctx: OptimizationContext) -> PassResult:
        from repro.transform.windowed import WindowedOptimizer

        options = replace(ctx.options, windowed=True, **self.params)
        engine = WindowedOptimizer(ctx.netlist, options)
        result = engine.run()
        statuses: dict = {}
        for outcome in engine.outcomes:
            statuses[outcome.status] = statuses.get(outcome.status, 0) + 1
        return PassResult(
            self.name,
            changed=bool(result.moves),
            details={
                "moves": len(result.moves),
                "windows": result.rounds,
                "generations": engine.generations,
                "jobs": options.jobs,
                "power": round(result.final_power, 6),
                **statuses,
            },
            optimize_result=result,
        )


class LintPass(Pass):
    """Gate the pipeline on the :mod:`repro.lint` rule pack.

    Parameters: ``fail_on`` severity (``error``/``warning``/``info``),
    ``select``/``ignore`` comma-separated rule IDs,
    ``probabilities=true`` to also run the probability rules against the
    context's engine, and ``facts=true`` to build the context's static
    fact base and run the proof-backed ``S0xx`` rules.
    """

    name = "lint"

    def __init__(
        self,
        fail_on: str = "error",
        select: Optional[str] = None,
        ignore: Optional[str] = None,
        probabilities: bool = False,
        facts: bool = False,
    ):
        super().__init__(
            fail_on=fail_on,
            select=select,
            ignore=ignore,
            probabilities=probabilities,
            facts=facts,
        )
        from repro.lint import Severity

        self.threshold = Severity.from_name(fail_on)
        self.select = self._split(select)
        self.ignore = self._split(ignore)
        self.probabilities = probabilities
        self.facts = facts
        requires = []
        if probabilities:
            requires.append("probability")
        if facts:
            requires.append("analysis")
        if requires:
            self.requires = tuple(requires)

    @staticmethod
    def _split(ids: Optional[str]) -> Optional[list[str]]:
        if not ids:
            return None
        return [part.strip() for part in ids.split(",") if part.strip()]

    def run(self, ctx: OptimizationContext) -> PassResult:
        from repro.lint import lint_netlist

        probabilities = None
        if self.probabilities:
            engine = ctx.probability
            probabilities = {
                name: engine.probability(name) for name in ctx.netlist.gates
            }
        facts = ctx.analysis.facts if self.facts else None
        report = lint_netlist(
            ctx.netlist,
            select=self.select,
            ignore=self.ignore,
            probabilities=probabilities,
            facts=facts,
        )
        if report.at_least(self.threshold):
            raise LintError(
                f"pipeline lint gate failed at severity "
                f"{self.params['fail_on']}:\n{report.format_text()}",
                report=report,
            )
        return PassResult(
            self.name,
            changed=False,
            details={"findings": len(report.diagnostics)},
        )


class SanitizePass(Pass):
    """Cross-check the context's built analyses against fresh rebuilds.

    The pipeline-level counterpart of the per-move
    :class:`~repro.lint.sanitizer.TransformSanitizer`: structural lint
    (X001) always runs; the probability (X002) and timing (X003) rebuild
    comparisons run only for analyses earlier passes actually built, so
    a clean pipeline pays nothing extra.  Read-only: raises
    :class:`~repro.errors.LintError` on the first divergence and never
    mutates the netlist or the analyses.
    """

    name = "sanitize"
    # Read-only over whatever happens to be built; the checks themselves
    # decide what to inspect, so the whole set is contract-legal.
    maintains = ALL_ANALYSES

    def run(self, ctx: OptimizationContext) -> PassResult:
        from repro.lint.diagnostics import LintReport
        from repro.lint.sanitizer import TransformSanitizer

        checker = TransformSanitizer(ctx)
        findings = list(checker._check_lint())
        checked = ["lint"]
        if not findings:
            if ctx.is_built("estimator"):
                findings.extend(checker._check_probabilities())
                checked.append("probability")
            if ctx.is_built("timing"):
                findings.extend(checker._check_timing())
                checked.append("timing")
        if findings:
            first = findings[0]
            report = LintReport(
                f"{ctx.netlist.name}: pipeline sanitize", findings
            )
            raise LintError(
                f"sanitize pass: {first.rule_id}: {first.message}",
                rule_id=first.rule_id,
                report=report,
            )
        return PassResult(
            self.name, changed=False, details={"checked": ",".join(checked)}
        )


class ResynthPass(Pass):
    """Un-map and technology-map again (the :mod:`repro.synth` adapter).

    Parameters mirror :class:`repro.synth.mapper.MapOptions`:
    ``mode=power|area|delay`` selects the mapping cost.  Produces a new
    netlist bound to the same library, so every analysis is rebuilt.
    """

    name = "resynth"
    invalidates = ALL_ANALYSES

    def __init__(self, mode: str = "power"):
        if mode not in ("area", "power", "delay"):
            raise PipelineError(
                f"unknown resynth mode {mode!r}; pick area, power, or delay"
            )
        super().__init__(mode=mode)
        self.mode = mode

    def run(self, ctx: OptimizationContext) -> PassResult:
        from repro.synth.mapper import MapOptions
        from repro.synth.resynth import resynthesize

        before = ctx.netlist.num_gates()
        remapped = resynthesize(
            ctx.netlist, options=MapOptions(mode=self.mode)
        )
        ctx.netlist = remapped
        return PassResult(
            self.name,
            changed=True,
            details={"gates": f"{before}->{remapped.num_gates()}"},
        )


class BddResynthPass(Pass):
    """Functional resynthesis through probability-sifted output BDDs.

    The library-parametric alternative to :class:`ResynthPass`
    (:mod:`repro.synth.bdd_resynth`): per-output ROBDDs are minimised
    under an activity-weighted sifting cost and decomposed into a shared
    MUX tree before re-mapping.  Structure-forgetting, so it can win or
    lose big; circuits whose global BDD exceeds ``node_limit`` are left
    untouched and reported as skipped rather than failing the pipeline.
    """

    name = "bdd_resynth"
    invalidates = ALL_ANALYSES

    def __init__(
        self,
        mode: str = "power",
        sift: bool = True,
        max_sift_vars: int = 8,
        node_limit: int = 200_000,
    ):
        if mode not in ("area", "power", "delay"):
            raise PipelineError(
                f"unknown bdd_resynth mode {mode!r}; "
                f"pick area, power, or delay"
            )
        super().__init__(
            mode=mode,
            sift=sift,
            max_sift_vars=max_sift_vars,
            node_limit=node_limit,
        )
        self.mode = mode
        self.sift = bool(sift)
        self.max_sift_vars = int(max_sift_vars)
        self.node_limit = int(node_limit)

    def run(self, ctx: OptimizationContext) -> PassResult:
        from repro.logic.bdd import BddSizeError
        from repro.synth.bdd_resynth import (
            BddResynthOptions,
            bdd_resynthesize,
        )
        from repro.synth.mapper import MapOptions

        before = ctx.netlist.num_gates()
        try:
            remapped = bdd_resynthesize(
                ctx.netlist,
                options=BddResynthOptions(
                    sift=self.sift,
                    max_sift_vars=self.max_sift_vars,
                    node_limit=self.node_limit,
                ),
                map_options=MapOptions(mode=self.mode),
            )
        except BddSizeError as exc:
            return PassResult(
                self.name,
                changed=False,
                details={"skipped": str(exc)},
            )
        ctx.netlist = remapped
        return PassResult(
            self.name,
            changed=True,
            details={"gates": f"{before}->{remapped.num_gates()}"},
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegisteredPass:
    """One registry entry, as listed by ``--list-passes``."""

    name: str
    factory: Callable[..., Pass]
    description: str
    parameters: str


PASS_REGISTRY: dict[str, RegisteredPass] = {}


def register_pass(
    name: str,
    factory: Callable[..., Pass],
    description: str,
    parameters: str = "",
) -> None:
    """Register a pass factory under ``name`` for specs and the CLI."""
    PASS_REGISTRY[name] = RegisteredPass(name, factory, description, parameters)


register_pass(
    "dedupe",
    DedupePass,
    "merge structurally identical gates to a fixed point",
)
register_pass(
    "powder",
    PowderPass,
    "the paper's substitution round loop (Figure 5)",
    "any OptimizeOptions field, e.g. repeat=25, objective=power",
)
register_pass(
    "window",
    WindowPass,
    "windowed POWDER: partition, optimize per-window on a pool, merge",
    "any OptimizeOptions field, e.g. jobs=4, window_size=120",
)
register_pass(
    "sweep",
    SweepPass,
    "remove gates with no path to a primary output",
)
register_pass(
    "lint",
    LintPass,
    "gate the pipeline on the static-analysis rule pack",
    "fail_on=error|warning|info, select=IDS, ignore=IDS, "
    "probabilities=true|false, facts=true|false",
)
register_pass(
    "sanitize",
    SanitizePass,
    "cross-check built analyses against from-scratch rebuilds",
)
register_pass(
    "resynth",
    ResynthPass,
    "un-map and technology-map again (synthesis-flow adapter)",
    "mode=power|area|delay",
)
register_pass(
    "bdd_resynth",
    BddResynthPass,
    "re-express outputs as probability-sifted BDDs, re-map the MUX trees",
    "mode=power|area|delay, sift=true|false, max_sift_vars=N, node_limit=N",
)


def available_passes() -> list[RegisteredPass]:
    """Every registered pass, in registration order."""
    return list(PASS_REGISTRY.values())


def make_pass(name: str, kwargs: Optional[dict] = None) -> Pass:
    """Instantiate the registered pass ``name`` with ``kwargs``.

    Raises :class:`~repro.errors.PipelineError` on unknown names or
    parameters the factory rejects.
    """
    entry = PASS_REGISTRY.get(name)
    if entry is None:
        raise PipelineError(
            f"unknown pass {name!r}; registered passes: "
            f"{', '.join(sorted(PASS_REGISTRY))}"
        )
    try:
        return entry.factory(**(kwargs or {}))
    except TypeError as error:
        signature = ""
        try:
            signature = str(inspect.signature(entry.factory))
        except (TypeError, ValueError):  # pragma: no cover - builtins only
            pass
        raise PipelineError(
            f"pass {name!r} rejected its parameters: {error}"
            + (f" (signature: {name}{signature})" if signature else "")
        ) from error


def default_pipeline(options: OptimizeOptions) -> list[Pass]:
    """The pipeline :func:`repro.transform.optimizer.power_optimize` runs:
    one ``powder`` stage (``window`` in windowed mode) inheriting every
    option unchanged."""
    if options.windowed:
        return [WindowPass()]
    return [PowderPass()]
