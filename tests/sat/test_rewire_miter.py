"""``encode_rewire_miter`` against exhaustive simulation.

The shared rewire miter proves "no primary output changes" for both of
its callers: the flip miter of ``FactOracle.prove_unobservable`` (every
reader of a stem reads its complement) and the triage miter (one branch
rewired).  On circuits small enough to simulate every input vector,
both modes must agree exactly with the simulated observability masks.
"""

from functools import lru_cache

import pytest

from repro.fuzz.generator import GeneratorConfig, random_mapped_netlist
from repro.library.standard import standard_library
from repro.netlist.simulate import SimState, exhaustive_patterns
from repro.netlist.traverse import topological_order, transitive_fanout
from repro.sat.cnf import encode_rewire_miter, tseitin_encode
from repro.sat.incremental import SAT, UNSAT, IncrementalSolver

LIB = standard_library()
CASES = [
    (shape, seed)
    for shape in ("random", "reconvergent")
    for seed in (3, 17, 41, 58)
]


@lru_cache(maxsize=None)
def verdicts(shape, seed):
    """``(mode, point, miter says unchanged, simulation says unchanged)``
    for every stem and every fanout branch of one generated netlist."""
    netlist = random_mapped_netlist(
        GeneratorConfig(seed=seed, shape=shape, max_inputs=7), LIB
    )
    assert len(netlist.input_names) <= 7
    sim = SimState(netlist, exhaustive_patterns(netlist.input_names))
    # One solver answers every query, as in the fact oracle and triage.
    formula = tseitin_encode(netlist)
    solver = IncrementalSolver(formula)

    def unchanged(cone, target, branch=None):
        activation = encode_rewire_miter(
            formula,
            solver,
            netlist,
            cone,
            target,
            -formula.var_of[target],
            branch,
        )
        if activation is None:
            return True
        status = solver.solve([activation]).status
        assert status in (SAT, UNSAT)
        return status == UNSAT

    rows = []
    for gate in topological_order(netlist):
        rows.append(
            (
                "stem",
                gate.name,
                unchanged(transitive_fanout(netlist, [gate]), gate.name),
                sim.stem_observability(gate) == 0,
            )
        )
        for sink, pin in gate.fanouts:
            cone = [sink] + transitive_fanout(netlist, [sink])
            rows.append(
                (
                    "branch",
                    f"{gate.name}->{sink.name}.{pin}",
                    unchanged(cone, gate.name, (sink.name, pin)),
                    sim.branch_observability(sink, pin) == 0,
                )
            )
    return rows


@pytest.mark.parametrize("shape,seed", CASES)
def test_miter_matches_exhaustive_observability(shape, seed):
    disagreements = [
        (mode, point, miter, simulated)
        for mode, point, miter, simulated in verdicts(shape, seed)
        if miter != simulated
    ]
    assert disagreements == []


def test_cases_exercise_both_verdicts_in_both_modes():
    rows = [row for case in CASES for row in verdicts(*case)]
    for mode in ("stem", "branch"):
        assert {row[3] for row in rows if row[0] == mode} == {True, False}
