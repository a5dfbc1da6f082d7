"""The persistent :class:`CandidateWorkspace` must produce the same
candidate list as a fresh one after any sequence of committed edits."""

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


def _commit_first_move(netlist, estimator, workspace, pool):
    """Apply the pool's first move that applies and report its edits."""
    for candidate in pool:
        if candidate.substitution.blocker(netlist) is not None:
            continue
        applied = apply_substitution(netlist, candidate.substitution)
        changed = estimator.update_after_edit(
            [netlist.gate(n) for n in applied.resim_roots]
        )
        dirty = dict.fromkeys(applied.dirty_gate_names(netlist))
        for name in changed:
            if name in netlist.gates:
                dirty.setdefault(name)
        workspace.invalidate([netlist.gate(n) for n in dirty])
        return True
    return False


class TestPersistence:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    # Round 2 changes g12's words but not its popcount: the masks it
    # feeds go stale unless the estimator reports value changes.
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
            changed = estimator.update_after_edit(
                [netlist.gate(n) for n in applied.resim_roots]
            )
            dirty = dict.fromkeys(applied.dirty_gate_names(netlist))
            for name in changed:
                if name in netlist.gates:
                    dirty.setdefault(name)
            workspace.invalidate([netlist.gate(n) for n in dirty])

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
            if not _commit_first_move(netlist, estimator, workspace, pool):
                break

    def test_pair_cache_reused_when_clean(self):
        netlist = make_random_netlist(LIB, 6, 20, 3, seed=1)
        estimator = _estimator(netlist)
        workspace = CandidateWorkspace(estimator)
        options = CandidateOptions()
        first = workspace.generate(options)
        cached = dict(workspace._pair_cache)
        assert cached
        second = workspace.generate(options)
        assert _signature(first) == _signature(second)
        # No edits: every cached entry must have been reused as-is.
        for key, entry in cached.items():
            assert workspace._pair_cache[key] is entry

    def test_fewer_than_two_sources_give_all_zero_tables(self, builder):
        # One input: n and both branches of a have fewer than two legal
        # sources, so their entries hold no pair and no tuple.
        a = builder.input("a")
        n = builder.not_(a, name="n")
        builder.output("o", builder.nand_(n, a, name="o"))
        workspace = CandidateWorkspace(_estimator(builder.build()))
        workspace.generate(CandidateOptions())
        small = [
            entry for entry in workspace._pair_cache.values()
            if len(entry.names) < 2
        ]
        assert sorted(len(entry.names) for entry in small) == [0, 1, 1]
        for entry in small:
            assert entry.a.size == entry.b.size == 0
            assert entry.cell.size == entry.act.size == 0

    def test_invalidate_drops_dead_targets(self):
        netlist = make_random_netlist(LIB, 6, 20, 3, seed=2)
        estimator = _estimator(netlist)
        workspace = CandidateWorkspace(estimator)
        options = CandidateOptions()
        pool = workspace.generate(options)
        applied = None
        for candidate in pool:
            try:
                applied = apply_substitution(netlist, candidate.substitution)
            except (TransformError, NetlistError):
                continue
            break
        assert applied is not None
        changed = estimator.update_after_edit(
            [netlist.gate(n) for n in applied.resim_roots]
        )
        dirty = dict.fromkeys(applied.dirty_gate_names(netlist))
        for name in changed:
            if name in netlist.gates:
                dirty.setdefault(name)
        workspace.invalidate([netlist.gate(n) for n in dirty])
        # Invalidation is lazy; the flush happens on the next generation.
        workspace.generate(options)
        live = set(netlist.gates)
        assert all(key[0] in live for key in workspace._pair_cache)
        assert all(name in live for name in workspace.maps.stem)
