"""Shared experiment infrastructure.

One :func:`run_circuit` call reproduces the per-circuit protocol of §4:
synthesize the low-power starting netlist (the POSE stand-in), then run
POWDER — once without delay constraints (§4.1) and once constrained to the
initial circuit delay (§4.2).  All knobs live in :class:`ExperimentConfig`
so the benchmark harness, the CLI and the tests run the identical protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.bench.suite import build_benchmark
from repro.library.cell import Library
from repro.library.standard import standard_library
from repro.netlist.netlist import Netlist
from repro.power.estimate import PowerEstimator
from repro.power.probability import SimulationProbability
from repro.telemetry.metrics import Timer
from repro.timing.analysis import TimingAnalysis
from repro.transform.optimizer import (
    OptimizeOptions,
    OptimizeResult,
    power_optimize,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Protocol parameters shared by all experiments."""

    map_mode: str = "power"
    #: Every POWDER run of the protocol (2048 patterns, seed 2024,
    #: ``repeat`` 25, 20 rounds); each experiment sets its delay slack
    #: per run.  Also sizes and seeds :func:`initial_metrics`.
    optimize: OptimizeOptions = field(
        default_factory=lambda: OptimizeOptions(max_rounds=20)
    )


#: Reduced-effort configuration for tests and quick demo runs.
QUICK_CONFIG = ExperimentConfig(
    optimize=OptimizeOptions(
        num_patterns=1024, repeat=10, max_rounds=4, max_moves=12
    )
)


@dataclass
class CircuitRun:
    """All measurements for one benchmark circuit."""

    name: str
    initial_power: float
    initial_area: float
    initial_delay: float
    num_gates: int
    unconstrained: Optional[OptimizeResult] = None
    constrained: Optional[OptimizeResult] = None
    cpu_seconds: float = 0.0


def initial_metrics(
    netlist: Netlist, config: ExperimentConfig
) -> tuple[float, float, float]:
    """(power, area, delay) of a netlist under the experiment protocol."""
    options = config.optimize
    estimator = PowerEstimator(
        netlist,
        SimulationProbability(
            netlist, num_patterns=options.num_patterns, seed=options.seed
        ),
    )
    timing = TimingAnalysis(netlist)
    return estimator.total(), netlist.total_area(), timing.circuit_delay


def run_circuit(
    name: str,
    config: ExperimentConfig = ExperimentConfig(),
    library: Optional[Library] = None,
    constrained: bool = True,
    unconstrained: bool = True,
) -> CircuitRun:
    """Synthesize one benchmark and run POWDER in the requested modes."""
    library = library or standard_library()
    with Timer(name) as timer:
        base = build_benchmark(name, library, map_mode=config.map_mode)
        power, area, delay = initial_metrics(base, config)
        run = CircuitRun(
            name=name,
            initial_power=power,
            initial_area=area,
            initial_delay=delay,
            num_gates=base.num_gates(),
        )
        if unconstrained:
            run.unconstrained = power_optimize(
                base.copy(name + "_unc"),
                replace(config.optimize, delay_slack_percent=None),
            )
        if constrained:
            run.constrained = power_optimize(
                base.copy(name + "_con"),
                replace(config.optimize, delay_slack_percent=0.0),
            )
    run.cpu_seconds = timer.seconds
    return run
