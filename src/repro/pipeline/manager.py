"""Running a pass sequence.

The :class:`PassManager` hands each stage the netlist the previous stage
left and the pipeline's options; a stage builds whatever analyses it
needs from those two.  Each stage's wall time lands in its
:attr:`~repro.pipeline.passes.PassResult.seconds`, so pipeline hot spots
show up per stage, not as one opaque total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.netlist.netlist import Netlist
from repro.pipeline.passes import Pass, PassResult
from repro.telemetry.metrics import Timer
from repro.transform.optimizer import OptimizeOptions


@dataclass
class PipelineResult:
    """Everything one pipeline run produced."""

    #: The netlist the last stage left.
    netlist: Netlist
    passes: list[PassResult] = field(default_factory=list)

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
        lines = [f"pipeline over {self.netlist.name!r}:"]
        lines.extend(f"  {result.summary()}" for result in self.passes)
        total = sum(result.seconds for result in self.passes)
        lines.append(f"  {'total':10s} {total:7.2f}s")
        return "\n".join(lines)


class PassManager:
    """Runs pass sequences, timing each stage."""

    def __init__(self, verbose: bool = False):
        self.verbose = verbose

    def run(
        self,
        netlist: Netlist,
        options: OptimizeOptions,
        passes: Sequence[Pass],
    ) -> PipelineResult:
        outcome = PipelineResult(netlist)
        for stage in passes:
            with Timer(stage.name) as timer:
                result = stage.run(outcome.netlist, options)
            result.seconds = timer.seconds
            if result.netlist is not None:
                outcome.netlist = result.netlist
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
    spec through :func:`repro.pipeline.spec.build_pipeline`, checking its
    stages against ``options`` (the defaults when ``None``), and runs them
    with those options.
    """
    options = options or OptimizeOptions()
    if isinstance(pipeline, str):
        from repro.pipeline.spec import build_pipeline

        passes: Sequence[Pass] = build_pipeline(pipeline, options)
    else:
        passes = pipeline
    return PassManager(verbose=verbose).run(netlist, options, passes)
