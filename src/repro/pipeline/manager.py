"""Scheduling passes over a shared context.

The :class:`PassManager` runs a pass sequence with declared-dependency
semantics: before each pass it lazily (re)builds the analyses the pass
``requires``; afterwards it invalidates exactly what the pass declares
in ``invalidates`` (dependents cascade through the context's dependency
graph).  Each pass's wall time lands in its
:attr:`~repro.pipeline.passes.PassResult.seconds`, so pipeline hot spots
show up per stage, not as one opaque total.

When the context's options carry ``sanitize=True``, each pass also runs
under a :class:`PassContract`: reading an analysis it never declared, or
dirtying state without declaring ``invalidates``/``maintains``, raises a
``[contract]``-tagged :class:`~repro.errors.PipelineError` instead of
silently computing over (or handing the next pass) stale analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.errors import PipelineError
from repro.netlist.netlist import Netlist
from repro.pipeline.context import OptimizationContext
from repro.pipeline.passes import Pass, PassResult
from repro.telemetry.metrics import Timer
from repro.transform.optimizer import OptimizeOptions


class PassContract:
    """Declared-dependency audit for one pass run (``sanitize`` mode).

    Installed on the context around ``stage.run``.  Three checks:

    - a depth-0 ``ctx.get`` of an analysis outside ``requires`` or
      ``maintains`` (prerequisites fetched by the context's own builders
      are exempt — they are the context's reads, not the pass's),
    - a ``ctx.put``/``ctx.invalidate`` of an analysis outside
      ``maintains`` or ``invalidates`` (cascaded dependents of a
      declared invalidation are exempt),
    - a structural netlist edit by a pass declaring neither
      ``invalidates`` nor ``maintains`` — the one way to hand every
      later pass silently-stale analyses.

    Violations raise a ``[contract]``-tagged
    :class:`~repro.errors.PipelineError` naming the pass, the access,
    and the declaration that would legalize it.
    """

    def __init__(self, stage: Pass):
        self.stage = stage
        self._reads = set(stage.requires) | set(stage.maintains)
        self._writes = set(stage.maintains) | set(stage.invalidates)

    def _fail(self, what: str, fix: str) -> None:
        stage = self.stage
        raise PipelineError(
            f"[contract] pass {stage.name!r} {what} without declaring it; "
            f"{fix} (requires={list(stage.requires)}, "
            f"maintains={list(stage.maintains)}, "
            f"invalidates={list(stage.invalidates)})"
        )

    def check_read(self, name: str) -> None:
        if name not in self._reads:
            self._fail(
                f"read analysis {name!r}",
                "add it to the pass's requires (or maintains)",
            )

    def check_write(self, name: str) -> None:
        if name not in self._writes:
            self._fail(
                f"dirtied analysis {name!r}",
                "add it to the pass's invalidates (or maintains)",
            )

    def check_netlist(self, before: tuple, context: OptimizationContext) -> None:
        after = (id(context.netlist), context.netlist.structural_version)
        if after != before and not self._writes:
            self._fail(
                "edited the netlist",
                "declare invalidates (or maintain the analyses "
                "incrementally and declare maintains)",
            )


@dataclass
class PipelineResult:
    """Everything one pipeline run produced."""

    context: OptimizationContext
    passes: list[PassResult] = field(default_factory=list)

    @property
    def netlist(self) -> Netlist:
        return self.context.netlist

    @property
    def optimize_result(self):
        """The last powder stage's
        :class:`~repro.transform.optimizer.OptimizeResult` (``None`` when
        no stage ran the engine)."""
        for result in reversed(self.passes):
            if result.optimize_result is not None:
                return result.optimize_result
        return None

    @property
    def changed(self) -> bool:
        return any(result.changed for result in self.passes)

    def summary(self) -> str:
        lines = [f"pipeline over {self.context.netlist.name!r}:"]
        lines.extend(f"  {result.summary()}" for result in self.passes)
        total = sum(result.seconds for result in self.passes)
        lines.append(f"  {'total':10s} {total:7.2f}s")
        return "\n".join(lines)


class PassManager:
    """Runs pass sequences with build/invalidate bookkeeping."""

    def __init__(self, verbose: bool = False):
        self.verbose = verbose

    def run(
        self, context: OptimizationContext, passes: Sequence[Pass]
    ) -> PipelineResult:
        outcome = PipelineResult(context=context)
        for stage in passes:
            # A pass may retune the context's options (e.g. powder
            # overrides) before its requirements are built against them.
            stage.configure(context)
            for analysis in stage.requires:
                context.get(analysis)
            contract = None
            if getattr(context.options, "sanitize", False):
                contract = PassContract(stage)
            before = (id(context.netlist), context.netlist.structural_version)
            with Timer(stage.name) as timer:
                context._contract = contract
                try:
                    result = stage.run(context)
                finally:
                    context._contract = None
                if contract is not None:
                    contract.check_netlist(before, context)
            result.seconds = timer.seconds
            context.invalidate(*stage.invalidates)
            outcome.passes.append(result)
            if self.verbose:
                print(f"  [pipeline] {result.summary()}", flush=True)
        return outcome


def run_pipeline(
    netlist: Netlist,
    pipeline: Union[str, Sequence[Pass]],
    options: Optional[OptimizeOptions] = None,
    verbose: bool = False,
) -> PipelineResult:
    """Run a pipeline — a spec string or ready passes — on ``netlist``.

    ``run_pipeline(nl, "dedupe; powder(repeat=25); sweep")`` parses the
    spec through :func:`repro.pipeline.spec.parse_pipeline_spec` and
    schedules the stages over a fresh context built from ``options``.
    """
    if isinstance(pipeline, str):
        from repro.pipeline.spec import build_pipeline

        passes: Sequence[Pass] = build_pipeline(pipeline)
    else:
        passes = pipeline
    context = OptimizationContext(netlist, options)
    return PassManager(verbose=verbose).run(context, passes)
