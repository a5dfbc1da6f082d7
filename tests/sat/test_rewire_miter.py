"""``encode_rewire_miter`` against exhaustive simulation.

The shared rewire miter proves "no primary output changes" for both of
its callers: the flip miter of ``FactOracle.prove_unobservable`` (every
reader of a stem reads its complement) and the triage miter (one branch
rewired).  On circuits small enough to simulate every input vector,
both modes must agree exactly with the simulated observability masks.

A complement always differs from its stem, so those queries never see
the miter's excitation variable false.  The rewirings below replace each
stem and branch with other signals, an inserted ``xor2`` and the
constants instead.  Their miters must be UNSAT exactly when exhaustive
simulation of the applied move shows no output difference, and with each
input vector assumed they must be SAT exactly on the vectors that tell
the two circuits apart, so no clause of the difference chain removes a
real model.
"""

from functools import lru_cache

import pytest

from repro.fuzz.generator import GeneratorConfig, random_mapped_netlist
from repro.library.standard import standard_library
from repro.netlist.simulate import SimState, exhaustive_patterns
from repro.netlist.traverse import topological_order, transitive_fanout
from repro.sat.cnf import encode_cell, encode_rewire_miter, tseitin_encode
from repro.sat.incremental import SAT, UNSAT, IncrementalSolver
from repro.transform.substitution import (
    IS2,
    IS3,
    OS2,
    OS3,
    Substitution,
    apply_to_copy,
)

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


def rewired_literal(formula, solver, netlist, sub):
    """The CNF literal of a substitution's substituting signal."""
    if sub.is_constant:
        var = formula.new_var()
        solver.ensure_vars(formula.num_vars)
        solver.add_clause(var if sub.constant else -var)
        return var
    literals = [
        -formula.var_of[name] if invert else formula.var_of[name]
        for name, invert in zip(
            sub.source_names(), (sub.invert1, sub.invert2)
        )
    ]
    if sub.new_cell is None:
        return literals[0]
    out = formula.new_var()
    solver.ensure_vars(formula.num_vars)
    encode_cell(solver, out, literals, netlist.library[sub.new_cell])
    return out


def rewirings(netlist):
    """Every stem and branch rewired to two other signals, direct and
    inverted, to an ``xor2`` over both, and to each constant."""
    order = topological_order(netlist)
    first, second = order[len(order) // 3].name, order[-2].name
    for gate in order:
        points = [(OS2, OS3, None)] + [
            (IS2, IS3, (sink.name, pin)) for sink, pin in gate.fanouts
        ]
        for two, three, branch in points:
            for value in (0, 1):
                yield Substitution(
                    two, gate.name, "", branch=branch, constant=value
                )
            if gate.name in (first, second):
                continue
            for source in (first, second):
                for invert in (False, True):
                    yield Substitution(two, gate.name, source, invert, branch)
            yield Substitution(
                three, gate.name, first, False, branch, second,
                new_cell="xor2",
            )


@lru_cache(maxsize=None)
def rewiring_verdicts(shape, seed):
    """``(move, miter says unchanged, vectors the miter accepts, vectors
    exhaustive simulation tells apart)`` for every legal rewiring."""
    netlist = random_mapped_netlist(
        GeneratorConfig(seed=seed, shape=shape, max_inputs=7), LIB
    )
    patterns = exhaustive_patterns(netlist.input_names)
    sim = SimState(netlist, patterns)
    vectors = range(1 << len(netlist.input_names))
    rows = []
    for sub in rewirings(netlist):
        if sub.blocker(netlist) is not None:
            continue
        # A solver per move keeps the per-vector solves cheap.
        formula = tseitin_encode(netlist)
        solver = IncrementalSolver(formula)
        trial, _applied = apply_to_copy(netlist, sub)
        trial_values = SimState(trial, patterns).values
        differs = 0
        for po, driver in netlist.outputs.items():
            differs |= sim.values[driver.name] ^ trial_values[
                trial.outputs[po].name
            ]
        if sub.is_output_substitution():
            cone = transitive_fanout(netlist, [netlist.gate(sub.target)])
        else:
            sink = netlist.gate(sub.branch[0])
            cone = [sink] + transitive_fanout(netlist, [sink])
        activation = encode_rewire_miter(
            formula,
            solver,
            netlist,
            cone,
            sub.target,
            rewired_literal(formula, solver, netlist, sub),
            sub.branch,
        )
        told_apart = {v for v in vectors if differs >> v & 1}
        if activation is None:
            rows.append((sub, True, set(), told_apart))
            continue
        status = solver.solve([activation]).status
        assert status in (SAT, UNSAT)
        accepted = set()
        for vector in vectors:
            assumptions = [activation] + [
                formula.var_of[pi]
                if sim.values[pi] >> vector & 1
                else -formula.var_of[pi]
                for pi in netlist.input_names
            ]
            if solver.solve(assumptions).status == SAT:
                accepted.add(vector)
        rows.append((sub, status == UNSAT, accepted, told_apart))
    return rows


@pytest.mark.parametrize("shape,seed", CASES)
def test_rewired_signals_match_exhaustive_simulation(shape, seed):
    disagreements = [
        (sub.candidate_id(), unchanged, sorted(accepted ^ told_apart))
        for sub, unchanged, accepted, told_apart in rewiring_verdicts(
            shape, seed
        )
        if unchanged != (not told_apart) or accepted != told_apart
    ]
    assert disagreements == []


def test_rewirings_exercise_both_verdicts_per_class():
    rows = [row for case in CASES for row in rewiring_verdicts(*case)]
    for kind in (OS2, IS2, OS3, IS3):
        for constant in (False, True) if kind in (OS2, IS2) else (False,):
            verdicts = {
                unchanged
                for sub, unchanged, _accepted, _told in rows
                if sub.kind == kind and sub.is_constant == constant
            }
            assert verdicts == {True, False}, (kind, constant)
