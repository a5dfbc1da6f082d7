"""The differential equivalence oracle and the metric cross-checker.

Equivalence of optimizer input and output is decided by three engines and
their verdicts are compared:

1. **Random-vector simulation** (prefilter) — bit-parallel simulation on a
   shared seeded pattern set.  Cheap, only ever proves inequality.
2. **Exhaustive simulation** — for circuits of at most
   :data:`EXHAUSTIVE_INPUT_LIMIT` primary inputs, both netlists are
   simulated on all ``2^n`` vectors.  This is ground truth: no search, no
   abstraction, nothing shared with the production oracle.
3. **SAT miter** — the SAT stage of
   :func:`repro.equiv.checker.check_equivalent` alone (no simulation, no
   BDDs): a Tseitin encoding of both netlists solved by
   :class:`~repro.sat.incremental.IncrementalSolver`.  That is the CDCL
   solver the optimizer's triage proves moves with, so this tier shares
   its solver with the optimizer; it shares no code with exhaustive
   simulation.

The production oracle (``check_equivalent`` with every stage:
simulation, BDDs, then the same SAT miter) runs alongside as a fourth
opinion; below its BDD node limit its verdict comes from BDDs, an engine
no other tier uses.  Above it, the production oracle has solved tier
3's miter under tier 3's budget, and tier 3 takes that verdict rather
than solve the same miter twice.  Any disagreement between definite
verdicts is a finding — by construction it implicates one of the
engines, whichever way it falls.

:func:`cross_check_metrics` re-derives an :class:`OptimizeResult`'s power,
area and delay figures from scratch and flags drift against the numbers
the optimizer reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.equiv.checker import EquivalenceResult, check_equivalent
from repro.errors import NetlistError
from repro.kernels.bits import first_pattern, words_to_int
from repro.netlist.netlist import Netlist
from repro.netlist.simulate import SimState, exhaustive_patterns, random_patterns
from repro.power.estimate import PowerEstimator
from repro.power.probability import SimulationProbability
from repro.timing.analysis import TimingAnalysis
from repro.transform.optimizer import OptimizeOptions, OptimizeResult

#: Largest PI count on which the exhaustive tier runs (2^16 patterns).
EXHAUSTIVE_INPUT_LIMIT = 16

#: Relative tolerance for the power cross-check (both sides are sums of
#: float products in potentially different orders).
POWER_RTOL = 1e-9


@dataclass
class OracleReport:
    """Per-tier verdicts plus every cross-engine disagreement found."""

    #: Tier name -> "equal" / "not-equal" / "unknown" / "skipped".
    verdicts: dict[str, str] = field(default_factory=dict)
    #: One PI assignment distinguishing the circuits, when any tier found one.
    counterexample: dict[str, int] | None = None
    #: Human-readable inconsistencies between the engines.
    disagreements: list[str] = field(default_factory=list)

    @property
    def equal(self) -> bool:
        """True when some engine proved equality and none disproved it."""
        statuses = set(self.verdicts.values())
        return "equal" in statuses and "not-equal" not in statuses

    @property
    def consistent(self) -> bool:
        return not self.disagreements


def _shared_patterns(left: Netlist, right: Netlist, kind: str, seed: int,
                     num_patterns: int) -> dict[str, np.ndarray]:
    """One pattern dict covering both input name sets (name-matched)."""
    names = sorted(set(left.input_names) | set(right.input_names))
    if kind == "exhaustive":
        return exhaustive_patterns(names)
    return random_patterns(names, num_patterns, seed)


def _simulate_outputs(netlist: Netlist, patterns) -> dict[str, int]:
    sim = SimState(netlist, patterns)
    return {po: sim.value(driver.name) for po, driver in netlist.outputs.items()}


def _first_difference(
    left_outs: dict[str, int],
    right_outs: dict[str, int],
    patterns,
    input_names: list[str],
) -> dict[str, int] | None:
    """Name-matched PO comparison; extracts a counterexample vector."""
    for po in sorted(left_outs):
        diff = left_outs[po] ^ right_outs[po]
        if diff:
            pattern = first_pattern(diff)
            return {
                name: (words_to_int(patterns[name]) >> pattern) & 1
                for name in input_names
            }
    return None


def check_equivalence_tiers(
    left: Netlist,
    right: Netlist,
    num_patterns: int = 1024,
    seed: int = 17,
    sat_conflict_limit: int = 200_000,
) -> OracleReport:
    """Run every oracle tier on the pair and reconcile the verdicts."""
    report = OracleReport()
    if set(left.outputs) != set(right.outputs):
        report.verdicts["interface"] = "not-equal"
        report.disagreements.append(
            "primary-output name sets differ: "
            f"{sorted(set(left.outputs) ^ set(right.outputs))}"
        )
        return report

    input_names = sorted(set(left.input_names) | set(right.input_names))

    # Tier 1: random-vector prefilter (proves only inequality).
    patterns = _shared_patterns(left, right, "random", seed, num_patterns)
    cex = _first_difference(
        _simulate_outputs(left, patterns),
        _simulate_outputs(right, patterns),
        patterns,
        input_names,
    )
    if cex is not None:
        report.verdicts["random-sim"] = "not-equal"
        report.counterexample = cex
    else:
        report.verdicts["random-sim"] = "unknown"

    # Tier 2: exhaustive simulation — ground truth on small circuits.
    if len(input_names) <= EXHAUSTIVE_INPUT_LIMIT:
        patterns = _shared_patterns(left, right, "exhaustive", seed, 0)
        cex = _first_difference(
            _simulate_outputs(left, patterns),
            _simulate_outputs(right, patterns),
            patterns,
            input_names,
        )
        report.verdicts["exhaustive"] = "not-equal" if cex else "equal"
        if cex is not None and report.counterexample is None:
            report.counterexample = cex
    else:
        report.verdicts["exhaustive"] = "skipped"

    # The production oracle, the fourth opinion, runs before tier 3: when
    # it decided at its SAT stage it has already solved tier 3's miter
    # under tier 3's budget, deterministically.  An engine crashing on an
    # input the others handled is itself a finding, not a fuzzer crash.
    prod: EquivalenceResult | None = None
    try:
        prod = check_equivalent(
            left,
            right,
            num_patterns=num_patterns,
            seed=seed,
            conflict_limit=sat_conflict_limit,
        )
    except NetlistError as exc:
        prod_error = exc

    # Tier 3: SAT miter over the Tseitin encoding.
    try:
        if prod is not None and prod.stage == "sat":
            sat = prod
        else:
            sat = check_equivalent(
                left,
                right,
                num_patterns=0,
                conflict_limit=sat_conflict_limit,
                bdd_node_limit=0,
            )
    except NetlistError as exc:
        report.verdicts["sat"] = "error"
        report.disagreements.append(f"sat tier raised: {exc}")
    else:
        report.verdicts["sat"] = sat.status
        if sat.counterexample is not None and report.counterexample is None:
            report.counterexample = sat.counterexample

    if prod is None:
        report.verdicts["production"] = "error"
        report.disagreements.append(f"production tier raised: {prod_error}")
    else:
        report.verdicts["production"] = prod.status
        if prod.counterexample is not None and report.counterexample is None:
            report.counterexample = prod.counterexample

    _reconcile(report)
    return report


def _reconcile(report: OracleReport) -> None:
    definite = {
        tier: verdict
        for tier, verdict in report.verdicts.items()
        if verdict in ("equal", "not-equal")
    }
    if len(set(definite.values())) > 1:
        report.disagreements.append(
            "oracle tiers disagree: "
            + ", ".join(f"{tier}={v}" for tier, v in sorted(definite.items()))
        )
    if not definite:
        report.disagreements.append(
            "no oracle tier reached a definite verdict: "
            + ", ".join(f"{tier}={v}" for tier, v in sorted(report.verdicts.items()))
        )
    # A found counterexample must actually distinguish the pair — tier 1
    # would have seen any vector the other engines report, so a "equal"
    # consensus alongside a counterexample is itself a disagreement.
    if report.counterexample is not None and "not-equal" not in set(
        report.verdicts.values()
    ):
        report.disagreements.append(
            "counterexample reported without a not-equal verdict"
        )


# ----------------------------------------------------------------------
# Metric cross-checks
# ----------------------------------------------------------------------
def cross_check_metrics(
    result: OptimizeResult, options: OptimizeOptions
) -> list[str]:
    """Re-derive final power/area/delay from scratch; report any drift.

    The optimizer maintains all three incrementally; a silently stale cache
    shows up as a difference against a cold rebuild on the final netlist.
    """
    netlist = result.netlist
    problems: list[str] = []

    engine = SimulationProbability(
        netlist,
        num_patterns=options.num_patterns,
        seed=options.seed,
        input_probs=options.input_probs,
    )
    fresh_power = PowerEstimator(netlist, engine).total()
    if not np.isclose(result.final_power, fresh_power, rtol=POWER_RTOL, atol=1e-12):
        problems.append(
            f"reported final power {result.final_power!r} != from-scratch "
            f"re-estimation {fresh_power!r}"
        )

    fresh_area = netlist.total_area()
    if abs(result.final_area - fresh_area) > 1e-9:
        problems.append(
            f"reported final area {result.final_area!r} != recomputed "
            f"{fresh_area!r}"
        )

    fresh_delay = TimingAnalysis(netlist).circuit_delay
    if abs(result.final_delay - fresh_delay) > 1e-9:
        problems.append(
            f"reported final delay {result.final_delay!r} != from-scratch "
            f"STA {fresh_delay!r}"
        )
    return problems


def verify_counterexample(
    left: Netlist, right: Netlist, assignment: dict[str, int]
) -> bool:
    """True when ``assignment`` really distinguishes the two netlists."""
    patterns = {
        name: np.full(
            1,
            np.uint64(0xFFFFFFFFFFFFFFFF) if assignment.get(name) else np.uint64(0),
            dtype=np.uint64,
        )
        for name in set(left.input_names) | set(right.input_names)
    }
    left_outs = _simulate_outputs(left, patterns)
    right_outs = _simulate_outputs(right, patterns)
    return any(left_outs[po] & 1 != right_outs[po] & 1 for po in left_outs)
