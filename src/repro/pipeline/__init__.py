"""Composable optimization pass pipelines.

- :class:`~repro.pipeline.passes.Pass` — the pass protocol (``name``,
  ``run(netlist, options) -> PassResult``) and the builtin passes
  (``dedupe``, ``powder``, ``window``, ``sweep``, ``lint``, ``resynth``,
  ``bdd_resynth``),
- :class:`~repro.pipeline.manager.PassManager` — hands each stage the
  netlist the previous one left and the pipeline's options, and times
  every stage,
- :class:`~repro.pipeline.context.OptimizationContext` — the analyses
  one engine run builds lazily over its netlist (probability engine,
  power estimator, delay constraint, STA, candidate workspace, triage
  checker),
- :mod:`~repro.pipeline.spec` — the ``"dedupe; powder(repeat=25);
  sweep"`` mini-language, surfaced as ``powder pipeline run`` in the
  CLI.

Quickstart::

    from repro.pipeline import run_pipeline

    outcome = run_pipeline(netlist, "dedupe; powder(repeat=25); sweep")
    print(outcome.summary())
    print(outcome.optimize_result.summary())
"""

from repro.errors import PipelineError
from repro.pipeline.context import OptimizationContext
from repro.pipeline.manager import PassManager, PipelineResult, run_pipeline
from repro.pipeline.passes import (
    BddResynthPass,
    DedupePass,
    LintPass,
    Pass,
    PassResult,
    PowderPass,
    RegisteredPass,
    ResynthPass,
    SweepPass,
    available_passes,
    default_pipeline,
    make_pass,
    register_pass,
)
from repro.pipeline.spec import (
    StageSpec,
    build_pipeline,
    format_pipeline_spec,
    format_stage,
    parse_pipeline_spec,
)

__all__ = [
    "OptimizationContext",
    "PassManager",
    "PipelineError",
    "PipelineResult",
    "run_pipeline",
    "Pass",
    "PassResult",
    "DedupePass",
    "PowderPass",
    "SweepPass",
    "LintPass",
    "BddResynthPass",
    "ResynthPass",
    "RegisteredPass",
    "available_passes",
    "default_pipeline",
    "make_pass",
    "register_pass",
    "StageSpec",
    "build_pipeline",
    "format_pipeline_spec",
    "format_stage",
    "parse_pipeline_spec",
]
