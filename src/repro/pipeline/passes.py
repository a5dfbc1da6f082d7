"""First-class optimization passes and the pass registry.

Each :class:`Pass` is a small, composable unit of work: ``run(netlist,
options)`` takes the netlist the previous stage left and the pipeline's
:class:`~repro.transform.optimizer.OptimizeOptions`, builds whatever
analyses it needs from those two, and reports a :class:`PassResult`.
Nothing a stage builds outlives it.

Builtin passes (see :func:`available_passes` / ``powder pipeline run
--list-passes``):

``dedupe``
    Merge structurally identical gates to a fixed point (the
    unconditional, always-permissible sweep of
    :mod:`repro.transform.dedupe`).
``powder``
    One :func:`~repro.transform.optimizer.power_optimize` run,
    parameterized by any :class:`~repro.transform.optimizer.OptimizeOptions`
    field — ``powder(repeat=25, objective=power)`` — with the objective
    resolved through the pluggable cost-model registry.
``window``
    Windowed POWDER for large netlists (``powder`` with
    ``windowed=true``, reporting windows and generations).
``sweep``
    Remove gates feeding neither a primary output nor another live gate.
``lint``
    Run the :mod:`repro.lint` rule pack; fails the pipeline at a
    configurable severity.
``resynth``, ``bdd_resynth``
    Adapters over the :mod:`repro.synth` flow: un-map and
    technology-map again (``mode=power|area|delay``).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

from repro.errors import LintError, PipelineError, ReproError
from repro.netlist.netlist import Netlist
from repro.transform.optimizer import OptimizeOptions, power_optimize


@dataclass
class PassResult:
    """What one pass did to the netlist it received."""

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
    #: The netlist that replaces the received one for later stages
    #: (``resynth``, ``bdd_resynth``); ``None`` when the pass edited the
    #: received netlist in place.
    netlist: Optional[Netlist] = None

    def summary(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.details.items())
        state = "changed" if self.changed else "clean"
        return f"{self.name:10s} {self.seconds:7.2f}s  {state:7s}  {parts}"


class Pass:
    """One composable unit of work over a netlist."""

    #: Registry key; also the stage name in pipeline specs.
    name: str = "?"

    def __init__(self, **params):
        #: The constructor kwargs, kept for spec round-tripping.
        self.params = params

    def run(self, netlist: Netlist, options: OptimizeOptions) -> PassResult:
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

    def run(self, netlist: Netlist, options: OptimizeOptions) -> PassResult:
        from repro.transform.dedupe import merge_duplicate_gates

        pairs = merge_duplicate_gates(netlist)
        return PassResult(
            self.name, changed=bool(pairs), details={"merged": len(pairs)}
        )


class SweepPass(Pass):
    """Remove dead gates (no path to any primary output)."""

    name = "sweep"

    def run(self, netlist: Netlist, options: OptimizeOptions) -> PassResult:
        removed = netlist.sweep_dead()
        return PassResult(
            self.name, changed=bool(removed), details={"removed": len(removed)}
        )


class PowderPass(Pass):
    """One POWDER run: the Figure-5 substitution round loop.

    Keyword parameters override the corresponding
    :class:`~repro.transform.optimizer.OptimizeOptions` fields for this
    stage, e.g. ``powder(repeat=25, objective=power)``; unset fields
    inherit the pipeline's options.  The stage is exactly
    ``power_optimize(netlist, replace(options, **params))``, so
    ``windowed=true`` runs the windowed engine and a
    ``delay_slack_percent`` is measured on the netlist the stage receives.
    A windowed run records no trace (per-window traces do not compose into
    one run trace), so a windowed stage drops the pipeline's tracer.  An
    override that ``OptimizeOptions`` rejects fails construction with a
    :class:`~repro.errors.PipelineError` naming the stage.
    """

    name = "powder"
    #: Fields the stage sets whatever its parameters say.
    implied: dict = {}

    def __init__(self, **overrides):
        unknown = set(overrides) - {f.name for f in fields(OptimizeOptions)}
        if unknown:
            raise PipelineError(
                f"unknown {self.name} option(s) {sorted(unknown)}; valid "
                f"options are the OptimizeOptions fields"
            )
        super().__init__(**overrides)
        self.stage_options(OptimizeOptions())

    def stage_options(self, options: OptimizeOptions) -> OptimizeOptions:
        """The options this stage runs with under the pipeline's
        ``options``; a clash is a :class:`~repro.errors.PipelineError`."""
        overrides = {**self.params, **self.implied}
        if overrides.get("windowed", options.windowed):
            overrides["trace"] = None
        try:
            return replace(options, **overrides)
        except (TypeError, ValueError, ReproError) as error:
            raise PipelineError(f"{self.spec()}: {error}") from None

    def run(self, netlist: Netlist, options: OptimizeOptions) -> PassResult:
        result = power_optimize(netlist, self.stage_options(options))
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


class WindowPass(PowderPass):
    """Windowed POWDER for large netlists (:mod:`repro.transform.windowed`).

    Partitions the netlist into TFI/TFO windows, optimizes them in
    conflict-free generations on a ``multiprocessing`` pool, and merges
    each generation's move lists.  Keyword parameters override
    :class:`OptimizeOptions` fields as in ``powder``, e.g. ``window(jobs=4,
    window_size=120)``; ``windowed=True`` is implied.  The details count
    the windows by status and the ``generations`` they ran in.
    """

    name = "window"
    implied = {"windowed": True}

    def run(self, netlist: Netlist, options: OptimizeOptions) -> PassResult:
        from repro.transform.windowed import WindowedOptimizer

        options = self.stage_options(options)
        engine = WindowedOptimizer(netlist, options)
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
    ``probabilities=true`` to also run the probability rules against a
    probability engine built from the pipeline's options, and
    ``facts=true`` to build the static fact base
    (:class:`~repro.analysis.AnalysisSuite`) and run the proof-backed
    ``S0xx`` rules.
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

    @staticmethod
    def _split(ids: Optional[str]) -> Optional[list[str]]:
        if not ids:
            return None
        return [part.strip() for part in ids.split(",") if part.strip()]

    def run(self, netlist: Netlist, options: OptimizeOptions) -> PassResult:
        from repro.lint import lint_netlist

        probabilities = None
        if self.probabilities:
            from repro.pipeline.context import OptimizationContext

            engine = OptimizationContext(netlist, options).get("probability")
            probabilities = {
                name: engine.probability(name) for name in netlist.gates
            }
        facts = None
        if self.facts:
            from repro.analysis.suite import AnalysisSuite

            # Every emitted fact is proven (SAT or exhaustively), so the
            # fact base does not depend on the run's pattern options.
            facts = AnalysisSuite(netlist).facts
        report = lint_netlist(
            netlist,
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


class ResynthPass(Pass):
    """Un-map and technology-map again (the :mod:`repro.synth` adapter).

    Parameters mirror :class:`repro.synth.mapper.MapOptions`:
    ``mode=power|area|delay`` selects the mapping cost.  Produces a new
    netlist bound to the same library, which later stages receive.
    """

    name = "resynth"

    def __init__(self, mode: str = "power"):
        if mode not in ("area", "power", "delay"):
            raise PipelineError(
                f"unknown resynth mode {mode!r}; pick area, power, or delay"
            )
        super().__init__(mode=mode)
        self.mode = mode

    def run(self, netlist: Netlist, options: OptimizeOptions) -> PassResult:
        from repro.synth.mapper import MapOptions
        from repro.synth.resynth import resynthesize

        before = netlist.num_gates()
        remapped = resynthesize(netlist, options=MapOptions(mode=self.mode))
        return PassResult(
            self.name,
            changed=True,
            details={"gates": f"{before}->{remapped.num_gates()}"},
            netlist=remapped,
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

    def run(self, netlist: Netlist, options: OptimizeOptions) -> PassResult:
        from repro.logic.bdd import BddSizeError
        from repro.synth.bdd_resynth import (
            BddResynthOptions,
            bdd_resynthesize,
        )
        from repro.synth.mapper import MapOptions

        before = netlist.num_gates()
        try:
            remapped = bdd_resynthesize(
                netlist,
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
        return PassResult(
            self.name,
            changed=True,
            details={"gates": f"{before}->{remapped.num_gates()}"},
            netlist=remapped,
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

