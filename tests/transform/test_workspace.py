"""A reused :class:`CandidateWorkspace` must produce the same candidate
list as a fresh one after any sequence of committed edits, none of which
it is told about."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import NetlistError, TransformError
from repro.library.standard import standard_library
from repro.power.estimate import PowerEstimator
from repro.power.probability import SimulationProbability
from repro.transform.candidates import (
    CandidateOptions,
    CandidateWorkspace,
    generate_candidates,
)
from repro.transform.substitution import apply_substitution

from tests.conftest import make_random_netlist
from tests.transform.test_candidates import _reference_pool

LIB = standard_library()


def _signature(candidates):
    return [
        (str(c.substitution), c.gain.quick, c.gain.pg_a, c.gain.pg_b)
        for c in candidates
    ]


def _estimator(netlist):
    return PowerEstimator(
        netlist, SimulationProbability(netlist, num_patterns=256, seed=5)
    )


def _commit_first_move(netlist, estimator, pool):
    """Apply the pool's first move that applies; report it to the
    estimator alone."""
    for candidate in pool:
        if candidate.substitution.blocker(netlist) is not None:
            continue
        applied = apply_substitution(netlist, candidate.substitution)
        estimator.update_after_edit(
            [netlist.gate(n) for n in applied.resim_roots]
        )
        return True
    return False


class TestPersistence:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    # Round 2 changes g12's words but not its popcount, an edit that
    # masks patched from reported changes once missed.
    @example(seed=93)
    def test_reused_workspace_matches_fresh(self, seed):
        netlist = make_random_netlist(LIB, 6, 22, 3, seed)
        estimator = _estimator(netlist)
        workspace = CandidateWorkspace(estimator)
        options = CandidateOptions(max_per_target=4)

        for _round in range(3):
            pool = workspace.generate(options)
            assert _signature(pool) == _signature(
                generate_candidates(estimator, options)
            )
            applied = None
            for candidate in pool:
                if not candidate.substitution.validate_against(netlist):
                    continue
                try:
                    applied = apply_substitution(netlist, candidate.substitution)
                except (TransformError, NetlistError):
                    continue
                break
            if applied is None:
                break
            estimator.update_after_edit(
                [netlist.gate(n) for n in applied.resim_roots]
            )

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_reused_workspace_matches_brute_force(self, seed):
        netlist = make_random_netlist(LIB, 6, 22, 3, seed)
        estimator = _estimator(netlist)
        workspace = CandidateWorkspace(estimator)
        options = CandidateOptions(max_per_target=4)
        for _round in range(3):
            pool = workspace.generate(options)
            assert [
                (
                    c.substitution.candidate_id(),
                    c.gain.pg_a,
                    c.gain.pg_b,
                    c.gain.area_delta,
                )
                for c in pool
            ] == _reference_pool(estimator, options)
            if not _commit_first_move(netlist, estimator, pool):
                break

    def test_fewer_than_two_sources_give_all_zero_tables(self, builder):
        # One input: n and both branches of a have fewer than two legal
        # sources, so their entries hold no pair and no tuple.
        a = builder.input("a")
        n = builder.not_(a, name="n")
        builder.output("o", builder.nand_(n, a, name="o"))
        workspace = CandidateWorkspace(_estimator(builder.build()))
        tables = []
        precompute = workspace._precompute_pair_tables

        def keep_table(table, cells, options):
            precompute(table, cells, options)
            tables.append(table)

        workspace._precompute_pair_tables = keep_table
        workspace.generate(CandidateOptions())
        (table,) = tables
        sources = np.diff(np.append(table.rank_start, table.ranked.size))
        small = np.flatnonzero(sources < 2)
        assert sorted(sources[small].tolist()) == [0, 1, 1]
        for row in small:
            first, second, cell, act = table.pairs[row]
            assert first.size == second.size == 0
            assert cell.size == act.size == 0
