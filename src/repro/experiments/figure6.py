"""Figure 6: the power-delay trade-off.

The paper runs POWDER over a set of 18 circuits with delay constraints of
0 %, 10 %, ... 200 % above the initial delay, sums power and delay over the
set, and plots relative power vs relative delay.  Expected shape: monotone
decreasing power with increasing allowance, about −26 % at 0 % rising to
about −38 % at +200 %, with two thirds of the extra gain already reached by
+30 % and saturation beyond +80 %.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.bench.suite import TRADEOFF_SUITE, build_benchmark
from repro.experiments.common import ExperimentConfig, initial_metrics
from repro.library.standard import standard_library
from repro.timing.analysis import TimingAnalysis
from repro.transform.optimizer import power_optimize

#: The paper's sweep points (delay increase allowed, percent).
DEFAULT_SLACK_PERCENTS = (0, 10, 20, 30, 50, 80, 120, 200)


@dataclass
class TradeoffPoint:
    """One point of the Figure-6 curve (summed over the circuit set)."""

    slack_percent: float
    relative_power: float  # optimized / initial, summed over circuits
    relative_delay: float  # final delay / initial delay, summed

    @property
    def power_reduction_pct(self) -> float:
        return 100.0 * (1.0 - self.relative_power)


@dataclass
class Figure6Result:
    points: list[TradeoffPoint]
    circuits: list[str]


def run_figure6(
    circuits: Optional[Sequence[str]] = None,
    slack_percents: Sequence[float] = DEFAULT_SLACK_PERCENTS,
    config: ExperimentConfig = ExperimentConfig(),
    progress: bool = False,
) -> Figure6Result:
    library = standard_library()
    names = list(circuits) if circuits is not None else list(TRADEOFF_SUITE)
    bases = {}
    initials = {}
    for name in names:
        netlist = build_benchmark(name, library, map_mode=config.map_mode)
        bases[name] = netlist
        initials[name] = initial_metrics(netlist, config)

    total_power0 = sum(p for p, _a, _d in initials.values())
    total_delay0 = sum(d for _p, _a, d in initials.values())
    points: list[TradeoffPoint] = []
    for slack in slack_percents:
        total_power = 0.0
        total_delay = 0.0
        for name in names:
            trial = bases[name].copy(f"{name}_s{slack}")
            result = power_optimize(
                trial, replace(config.optimize, delay_slack_percent=float(slack))
            )
            total_power += result.final_power
            total_delay += TimingAnalysis(trial).circuit_delay
        point = TradeoffPoint(
            slack_percent=float(slack),
            relative_power=total_power / total_power0,
            relative_delay=total_delay / total_delay0,
        )
        points.append(point)
        if progress:
            print(
                f"  slack +{slack:5.0f}%: power x{point.relative_power:.3f} "
                f"({point.power_reduction_pct:5.1f}% red.), "
                f"delay x{point.relative_delay:.3f}"
            )
    return Figure6Result(points=points, circuits=names)


def format_figure6(result: Figure6Result) -> str:
    lines = [
        "Figure 6 — power-delay trade-off "
        f"({len(result.circuits)} circuits: {', '.join(result.circuits)})",
        f"{'constraint':>11s} {'rel. delay':>11s} {'rel. power':>11s} "
        f"{'power red.%':>12s}",
    ]
    for p in result.points:
        lines.append(
            f"{p.slack_percent:+10.0f}% {p.relative_delay:11.3f} "
            f"{p.relative_power:11.3f} {p.power_reduction_pct:12.1f}"
        )
    lines.append(
        "paper shape: ~26% reduction at +0%, rising to ~38% at +200%, "
        "saturating beyond +80%"
    )
    # ASCII sketch of the curve.
    lines.append("")
    lines.append("relative power vs relative delay:")
    for p in result.points:
        bar = int(round((p.relative_power) * 50))
        lines.append(
            f"  +{p.slack_percent:3.0f}% | " + "#" * bar + f" {p.relative_power:.3f}"
        )
    return "\n".join(lines)
