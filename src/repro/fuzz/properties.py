"""Metamorphic properties of one optimizer run.

Each property states a relation the optimizer must satisfy on *every*
input, no reference answer needed:

- ``power-monotone`` — the estimated power never increases (the Figure-5
  loop only accepts strictly improving moves),
- ``delay-constraint`` — when a limit is configured, the final circuit
  delay respects it,
- ``dead-logic`` — the output has no fanout-free logic gate the input did
  not have: every applied move sweeps what it kills, and a rejected move
  leaves nothing behind,
- ``idempotent-rerun`` — running the optimizer again on its own output is
  safe: it converges, keeps equivalence, and never pushes power back up,
- ``pipeline-identity`` — ``power_optimize`` and the one-stage pipeline
  ``run_pipeline(copy, "powder", options)`` apply identical move
  sequences, flat or windowed: a ``powder`` stage is one
  ``power_optimize`` call.

All checks are pure observers: they work on copies and never mutate the
netlist under test.
"""

from __future__ import annotations

from dataclasses import replace

from repro.netlist.netlist import Netlist
from repro.transform.optimizer import (
    OptimizeOptions,
    OptimizeResult,
    power_optimize,
)

#: Acceptance slack on float comparisons.
_EPS = 1e-9


def run_properties(
    original: Netlist,
    result: OptimizeResult,
    options: OptimizeOptions,
    check_rerun: bool = True,
    check_pipeline_identity: bool = True,
    check_power_monotone: bool = True,
) -> list[str]:
    """Evaluate every metamorphic property; returns failure descriptions.

    ``check_power_monotone=False`` drops the monotonicity checks (both
    here and inside the rerun property): a windowed run accepts moves on
    window-local power estimates, which approximate the global estimator,
    so global power may occasionally rise — equivalence, not gain
    accounting, is the windowed contract.
    """
    failures: list[str] = []
    if check_power_monotone:
        failures.extend(power_monotone(result))
    failures.extend(delay_constraint(result))
    failures.extend(dead_logic(original, result))
    if check_rerun:
        failures.extend(
            idempotent_rerun(result, options, check_power=check_power_monotone)
        )
    if check_pipeline_identity:
        failures.extend(pipeline_identity(original, result, options))
    return failures


def power_monotone(result: OptimizeResult) -> list[str]:
    """[power-monotone] optimization never increases estimated power."""
    failures = []
    if result.final_power > result.initial_power + _EPS:
        failures.append(
            f"[power-monotone] power rose {result.initial_power!r} -> "
            f"{result.final_power!r}"
        )
    total = 0.0
    for move in result.moves:
        total += move.measured_power_gain
        if move.measured_power_gain < -_EPS:
            failures.append(
                f"[power-monotone] accepted move {move.substitution} lost "
                f"power ({move.measured_power_gain:+.6f})"
            )
    drift = (result.initial_power - result.final_power) - total
    if abs(drift) > 1e-6:
        failures.append(
            f"[power-monotone] move-log gains sum to {total!r} but the run "
            f"claims {(result.initial_power - result.final_power)!r}"
        )
    return failures


def delay_constraint(result: OptimizeResult) -> list[str]:
    """[delay-constraint] a configured limit holds on the final circuit."""
    if result.delay_limit is None:
        return []
    if result.final_delay > result.delay_limit + _EPS:
        return [
            f"[delay-constraint] final delay {result.final_delay!r} violates "
            f"the limit {result.delay_limit!r}"
        ]
    return []


def dead_logic(original: Netlist, result: OptimizeResult) -> list[str]:
    """[dead-logic] no fanout-free logic gate the input did not have."""
    before = {g.name for g in original.logic_gates() if not g.fanout_count()}
    left = sorted(
        g.name
        for g in result.netlist.logic_gates()
        if not g.fanout_count() and g.name not in before
    )
    if left:
        return [f"[dead-logic] fanout-free gates left behind: {left}"]
    return []


def idempotent_rerun(
    result: OptimizeResult, options: OptimizeOptions, check_power: bool = True
) -> list[str]:
    """[idempotent-rerun] re-optimizing the output is safe and monotone."""
    from repro.fuzz.oracle import check_equivalence_tiers

    optimized = result.netlist
    rerun_input = optimized.copy(optimized.name + "_rerun")
    rerun = power_optimize(rerun_input, replace(options))
    failures = []
    if check_power and rerun.final_power > result.final_power + _EPS:
        failures.append(
            f"[idempotent-rerun] second run raised power "
            f"{result.final_power!r} -> {rerun.final_power!r}"
        )
    oracle = check_equivalence_tiers(
        optimized, rerun.netlist, num_patterns=options.num_patterns
    )
    if not oracle.equal or not oracle.consistent:
        failures.append(
            "[idempotent-rerun] second run broke equivalence: "
            f"{oracle.verdicts} {oracle.disagreements}"
        )
    return failures


def pipeline_identity(
    original: Netlist, result: OptimizeResult, options: OptimizeOptions
) -> list[str]:
    """[pipeline-identity] ``power_optimize`` == the ``powder`` pipeline.

    ``result`` came from ``power_optimize``; the one-stage pipeline
    ``run_pipeline(copy, "powder", options)`` must apply the identical
    move sequence, on the windowed engine too.
    """
    from repro.pipeline import run_pipeline

    piped = run_pipeline(
        original.copy(original.name + "_piped"),
        "powder",
        replace(options, trace=None),
    ).optimize_result
    ours = [str(m.substitution) for m in result.moves]
    theirs = [str(m.substitution) for m in piped.moves]
    if ours != theirs:
        for index, (a, b) in enumerate(zip(ours, theirs)):
            if a != b:
                return [
                    f"[pipeline-identity] move {index} differs: "
                    f"power_optimize {a} vs pipeline {b}"
                ]
        return [
            f"[pipeline-identity] move counts differ: power_optimize "
            f"{len(ours)} vs pipeline {len(theirs)}"
        ]
    if abs(piped.final_power - result.final_power) > _EPS:
        return [
            f"[pipeline-identity] final power differs: power_optimize "
            f"{result.final_power!r} vs pipeline {piped.final_power!r}"
        ]
    return []
