"""Unit tests and a brute-force property for the incremental CDCL solver."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat.cnf import CnfFormula
from repro.sat.incremental import SAT, UNKNOWN, UNSAT, IncrementalSolver


def formula_of(num_vars, clauses):
    f = CnfFormula()
    for _ in range(num_vars):
        f.new_var()
    for clause in clauses:
        f.add_clause(*clause)
    return f


class TestBasics:
    def test_empty_database_is_sat(self):
        assert IncrementalSolver().solve().status == SAT

    def test_unit_propagation(self):
        solver = IncrementalSolver(formula_of(2, [(1,), (-1, 2)]))
        result = solver.solve()
        assert result.status == SAT
        assert result.model[1] is True
        assert result.model[2] is True

    def test_direct_contradiction(self):
        solver = IncrementalSolver(formula_of(1, [(1,), (-1,)]))
        assert solver.solve().status == UNSAT

    def test_unsat_stays_unsat(self):
        solver = IncrementalSolver(formula_of(1, [(1,), (-1,)]))
        assert solver.solve().status == UNSAT
        assert solver.solve().status == UNSAT

    def test_tautology_ignored(self):
        solver = IncrementalSolver()
        solver.ensure_vars(2)
        solver.add_clause(1, -1)
        solver.add_clause(2)
        result = solver.solve()
        assert result.status == SAT
        assert result.model[2] is True

    def test_duplicate_literals_deduped(self):
        solver = IncrementalSolver()
        solver.ensure_vars(2)
        solver.add_clause(1, 1, 1)
        result = solver.solve()
        assert result.status == SAT
        assert result.model[1] is True

    def test_model_satisfies_every_clause(self):
        clauses = [(1, 2), (-1, 3), (-2, -3), (2, 3)]
        solver = IncrementalSolver(formula_of(3, clauses))
        result = solver.solve()
        assert result.status == SAT
        for clause in clauses:
            assert any(
                result.model[abs(l)] is (l > 0) for l in clause
            ), clause

    @pytest.mark.parametrize(
        "num_vars, clauses, status, forced",
        [
            pytest.param(1, [()], UNSAT, {}, id="empty-clause"),
            pytest.param(
                3, [(1,), (-1, 2), (-2, 3)], SAT, {1: True, 2: True, 3: True},
                id="implication-chain",
            ),
            pytest.param(
                2, [(1,), (2,), (-1, -2)], UNSAT, {}, id="pigeonhole-2-into-1"
            ),
            pytest.param(
                3,
                [(1, 2), (-1, -2), (2, 3), (-2, -3), (1, 3), (-1, -3)],
                UNSAT,
                {},
                id="odd-xor-cycle",
            ),
        ],
    )
    def test_small_formulas(self, num_vars, clauses, status, forced):
        result = IncrementalSolver(formula_of(num_vars, clauses)).solve()
        assert result.status == status
        for var, value in forced.items():
            assert result.model[var] is value


class TestIncremental:
    def test_clauses_added_between_solves(self):
        solver = IncrementalSolver(formula_of(2, [(1, 2)]))
        assert solver.solve().status == SAT
        solver.add_clause(-1)
        assert solver.solve().status == SAT
        solver.add_clause(-2)
        assert solver.solve().status == UNSAT

    def test_assumptions_do_not_persist(self):
        solver = IncrementalSolver(formula_of(2, [(1, 2)]))
        result = solver.solve([-1])
        assert result.status == SAT
        assert result.model[2] is True
        # UNSAT under assumptions leaves the database usable.
        assert solver.solve([-1, -2]).status == UNSAT
        assert solver.solve().status == SAT

    def test_activation_literal_pattern(self):
        # The triage usage: one goal clause per query, gated by an
        # assumption literal so retired goals never constrain later ones.
        solver = IncrementalSolver(formula_of(4, [(1, 2), (-1, 3)]))
        act1 = 5
        solver.ensure_vars(5)
        solver.add_clause(-act1, -2)
        solver.add_clause(-act1, -3)
        assert solver.solve([act1]).status == UNSAT
        act2 = 6
        solver.ensure_vars(6)
        solver.add_clause(-act2, 4)
        result = solver.solve([act2])
        assert result.status == SAT
        assert result.model[4] is True

    def test_conflict_limit_returns_unknown(self):
        # Pigeonhole PHP(6, 5): small enough to build, hard enough that a
        # one-conflict budget cannot finish it.
        pigeons, holes = 6, 5
        var = lambda p, h: p * holes + h + 1
        clauses = []
        for p in range(pigeons):
            clauses.append(tuple(var(p, h) for h in range(holes)))
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    clauses.append((-var(p1, h), -var(p2, h)))
        solver = IncrementalSolver(formula_of(pigeons * holes, clauses))
        assert solver.solve(conflict_limit=1).status == UNKNOWN
        # The same database still finishes under a real budget.
        assert solver.solve(conflict_limit=100_000).status == UNSAT

    def test_conflict_counts_are_deterministic(self):
        def run():
            solver = IncrementalSolver(
                formula_of(4, [(1, 2), (-1, 3), (-2, -3), (-3, 4), (-4, -1)])
            )
            result = solver.solve()
            return result.status, result.conflicts, result.decisions

        assert run() == run()


def assert_matches_enumeration(formula):
    """`IncrementalSolver`'s status and model agree with trying every
    assignment of `formula`'s variables."""
    variables = range(1, formula.num_vars + 1)
    models = set()
    for bits in itertools.product((False, True), repeat=formula.num_vars):
        if formula.evaluate(dict(zip(variables, bits))):
            models.add(bits)
    result = IncrementalSolver(formula).solve()
    assert result.status == (SAT if models else UNSAT)
    if result.status == SAT:
        assert tuple(result.model[v] for v in variables) in models


class TestDifferentialVsDpll:
    """Random 3-SAT up to the satisfiability threshold, checked against
    enumeration. The reference used to be a DPLL solver; enumerating every
    assignment is exact, so it also checks the model."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_random_3sat(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(3, 10)
        num_clauses = rng.randint(1, int(num_vars * 4.5))
        clauses = []
        for _ in range(num_clauses):
            size = rng.randint(1, 3)
            vs = rng.sample(range(1, num_vars + 1), min(size, num_vars))
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        assert_matches_enumeration(formula_of(num_vars, clauses))
