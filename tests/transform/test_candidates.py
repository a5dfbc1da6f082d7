"""Tests for simulation-filtered candidate generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransformError
from repro.netlist.observability import ObservabilityMaps
from repro.netlist.simulate import evaluate_cell
from repro.netlist.traverse import topological_order, transitive_fanout
from repro.power.estimate import PowerEstimator
from repro.power.probability import (
    PropagationProbability,
    SimulationProbability,
)
from repro.transform.candidates import (
    CandidateOptions,
    CandidateWorkspace,
    _two_input_cells,
    generate_candidates,
)
from repro.transform.gain import dominated_region, quick_gain
from repro.transform.permissible import PERMISSIBLE, check_candidate
from repro.transform.substitution import IS2, IS3, OS2, OS3, Substitution
from repro.library.standard import standard_library
from tests.conftest import make_random_netlist

LIB = standard_library()


def exhaustive_estimator(netlist):
    return PowerEstimator(
        netlist, SimulationProbability(netlist, exhaustive=True)
    )


class TestGeneration:
    def test_figure2_contains_paper_move(self, figure2):
        est = exhaustive_estimator(figure2)
        candidates = generate_candidates(est)
        d = figure2.gate("d")
        pin = [i for i, g in enumerate(d.fanins) if g.name == "a"][0]
        found = [
            c
            for c in candidates
            if c.substitution.kind == IS2
            and c.substitution.target == "a"
            and c.substitution.source1 == "e"
            and c.substitution.branch == ("d", pin)
        ]
        assert found, "the paper's Figure-2 rewiring must be a candidate"

    def test_sorted_by_quick_gain(self, random_netlist):
        est = exhaustive_estimator(random_netlist)
        candidates = generate_candidates(est)
        gains = [c.quick for c in candidates]
        assert gains == sorted(gains, reverse=True)

    def test_requires_simulation_engine(self, figure2):
        est = PowerEstimator(figure2, PropagationProbability(figure2))
        with pytest.raises(TransformError):
            generate_candidates(est)

    def test_class_enables(self, random_netlist):
        est = exhaustive_estimator(random_netlist)
        only_os2 = generate_candidates(
            est,
            CandidateOptions(
                enable_is2=False, enable_os3=False, enable_is3=False
            ),
        )
        assert all(c.substitution.kind == OS2 for c in only_os2)
        only_is = generate_candidates(
            est,
            CandidateOptions(
                enable_os2=False, enable_os3=False, enable_is3=False
            ),
        )
        assert all(c.substitution.kind == IS2 for c in only_is)

    def test_max_total_cap(self, random_netlist):
        est = exhaustive_estimator(random_netlist)
        capped = generate_candidates(est, CandidateOptions(max_total=5))
        assert len(capped) <= 5

    def test_no_inversion_option(self, random_netlist):
        est = exhaustive_estimator(random_netlist)
        candidates = generate_candidates(
            est, CandidateOptions(allow_inversion=False)
        )
        assert all(not c.substitution.invert1 for c in candidates)

    def test_os3_cells_restriction(self, random_netlist):
        est = exhaustive_estimator(random_netlist)
        candidates = generate_candidates(
            est,
            CandidateOptions(
                enable_os2=False,
                enable_is2=False,
                enable_is3=False,
                os3_cells=("xor2",),
            ),
        )
        assert all(
            c.substitution.new_cell == "xor2" for c in candidates
        )


class TestCandidateQuality:
    @pytest.mark.parametrize("seed", [7, 8])
    def test_all_candidates_permissible_under_exhaustive_sim(self, lib, seed):
        # With exhaustive patterns the observability filter is exact, so
        # every candidate must pass the ATPG permissibility check.
        nl = make_random_netlist(lib, 5, 12, 3, seed=seed)
        est = exhaustive_estimator(nl)
        candidates = generate_candidates(
            est, CandidateOptions(max_per_target=3, max_total=40)
        )
        assert candidates, "expected at least one candidate"
        for candidate in candidates[:25]:
            result = check_candidate(nl, candidate.substitution)
            assert result.status == PERMISSIBLE, str(candidate.substitution)

    def test_no_cycle_candidates(self, random_netlist):
        est = exhaustive_estimator(random_netlist)
        for candidate in generate_candidates(est):
            sub = candidate.substitution
            target = random_netlist.gate(sub.target)
            for source_name in sub.source_names():
                source = random_netlist.gate(source_name)
                if sub.is_output_substitution():
                    for sink, _pin in target.fanouts:
                        assert not random_netlist.would_create_cycle(
                            source, sink
                        )
                else:
                    sink = random_netlist.gate(sub.branch[0])
                    assert not random_netlist.would_create_cycle(source, sink)

    def test_branch_targets_only_multi_fanout(self, random_netlist):
        est = exhaustive_estimator(random_netlist)
        for candidate in generate_candidates(est):
            sub = candidate.substitution
            if sub.kind in (IS2, IS3):
                assert random_netlist.gate(sub.target).fanout_count() >= 2


class TestTwoInputCells:
    """The OS3/IS3 insertion-cell query (`_two_input_cells`)."""

    def test_defaults_to_library_capability_query(self):
        netlist = make_random_netlist(standard_library(), 4, 8, 2, seed=5)
        cells = _two_input_cells(netlist, CandidateOptions())
        assert cells == list(netlist.library.insertion_cells())
        assert all(cell.num_inputs == 2 for cell in cells)

    def test_cheapest_per_function_dedup(self):
        from repro.library.genlib import parse_genlib

        lib = parse_genlib(
            "GATE inv 1.0 O=!a; PIN a INV 1 9 1 1 1 1\n"
            "GATE and_cheap 2.0 O=a*b; PIN * NONINV 1 9 1 1 1 1\n"
            "GATE and_rich 5.0 O=a*b; PIN * NONINV 1 9 1 1 1 1\n"
            "GATE or2 3.0 O=a+b; PIN * NONINV 1 9 1 1 1 1\n"
        )
        netlist = make_random_netlist(standard_library(), 4, 8, 2, seed=5)
        netlist.library = lib
        names = [
            c.name for c in _two_input_cells(netlist, CandidateOptions())
        ]
        # One cell per function, the cheaper AND wins, inverter excluded.
        assert names == ["and_cheap", "or2"]

    def test_os3_cells_override_dedups_by_function(self):
        netlist = make_random_netlist(standard_library(), 4, 8, 2, seed=5)
        options = CandidateOptions(os3_cells=("and2", "and2", "nand2"))
        cells = _two_input_cells(netlist, options)
        # The repeated function collapses; the override order is ignored in
        # favour of the deterministic cheapest-per-function pick.
        assert sorted(c.name for c in cells) == ["and2", "nand2"]

    def test_os3_cells_override_restricts_pool(self):
        netlist = make_random_netlist(standard_library(), 4, 8, 2, seed=5)
        cells = _two_input_cells(
            netlist, CandidateOptions(os3_cells=("xor2",))
        )
        assert [c.name for c in cells] == ["xor2"]

    def test_no_library_yields_nothing(self):
        netlist = make_random_netlist(standard_library(), 4, 8, 2, seed=5)
        netlist.library = None
        assert _two_input_cells(netlist, CandidateOptions()) == []


def _reference_pool(estimator, options):
    """Brute-force pool: score every simulation-compatible tuple with
    ``quick_gain``, keep each target's ``max_per_target`` best by
    ``(-quick, candidate_id)``, then apply the global sort and cap."""
    netlist = estimator.netlist
    sim = estimator.engine.sim
    maps = ObservabilityMaps(sim)
    stems = list(topological_order(netlist))
    order = sorted(stems, key=estimator.activity)  # stable: topo order
    cells = _two_input_cells(netlist, options)
    library = netlist.library
    nwords = sim.nwords

    def agrees(word, va, obs):
        return not ((word ^ va) & obs).any()

    def per_target(target, branch, avoid, obs):
        kind2, kind3 = (OS2, OS3) if branch is None else (IS2, IS3)
        enable2, enable3 = (
            (options.enable_os2, options.enable_os3)
            if branch is None
            else (options.enable_is2, options.enable_is3)
        )
        va = sim.value(target.name)
        tfo = {id(g) for g in transitive_fanout(netlist, [avoid])}
        legal = [
            g for g in stems
            if g is not target and g is not avoid and id(g) not in tfo
        ]
        tuples = []
        if options.constant_substitution:
            for value in (0, 1):
                tie_word = ~np.zeros_like(va) if value else np.zeros_like(va)
                if library.constant(bool(value)) is not None and agrees(
                    tie_word, va, obs
                ):
                    tuples.append(Substitution(
                        kind2, target.name, "", branch=branch, constant=value
                    ))
        if enable2:
            for source in legal:
                word = sim.value(source.name)
                if agrees(word, va, obs):
                    tuples.append(Substitution(
                        kind2, target.name, source.name, branch=branch
                    ))
                elif options.allow_inversion and agrees(~word, va, obs):
                    tuples.append(Substitution(
                        kind2, target.name, source.name, invert1=True,
                        branch=branch,
                    ))
        if enable3:
            legal_ids = {id(g) for g in legal}
            ranked = [g for g in order if id(g) in legal_ids][
                : options.pair_source_limit
            ]
            for i, first in enumerate(ranked):
                for second in ranked[i + 1:]:
                    for cell in cells:
                        word = evaluate_cell(
                            cell,
                            [sim.value(first.name), sim.value(second.name)],
                            nwords,
                        )
                        if agrees(word, va, obs):
                            tuples.append(Substitution(
                                kind3, target.name, first.name,
                                branch=branch, source2=second.name,
                                new_cell=cell.name,
                            ))
        scored = []
        for substitution in tuples:
            try:
                gain = quick_gain(estimator, substitution)
            except TransformError:
                continue
            if (
                options.min_quick_gain is not None
                and gain.quick < options.min_quick_gain
            ):
                continue
            scored.append((substitution, gain))
        scored.sort(key=lambda e: (-e[1].quick, e[0].candidate_id()))
        return scored[: options.max_per_target]

    pool = []
    for target in stems:
        if not target.is_input and target.fanout_count():
            pool += per_target(target, None, target, maps.stem[target.name])
    for target in stems:
        if target.fanout_count() >= 2:
            for sink, pin in list(target.fanouts):
                pool += per_target(
                    target, (sink.name, pin), sink, maps.branch(sink, pin)
                )
    pool.sort(key=lambda e: (-e[1].quick, e[0].candidate_id()))
    return [
        (s.candidate_id(), g.pg_a, g.pg_b, g.area_delta)
        for s, g in pool[: options.max_total]
    ]


def _pool(estimator, options):
    return [
        (
            c.substitution.candidate_id(),
            c.gain.pg_a,
            c.gain.pg_b,
            c.gain.area_delta,
        )
        for c in CandidateWorkspace(estimator).generate(options)
    ]


def absorbed_source_netlist(builder):
    """t = n + n·c equals n, and n dies with t: a source in Dom(t)."""
    a, b, c, d = builder.inputs("a", "b", "c", "d")
    n = builder.xor_(a, b, name="n")
    m = builder.and_(n, c, name="m")
    t = builder.or_(n, m, name="t")
    builder.output("u", builder.xor_(t, d, name="u"))
    return builder.build()


class TestPoolExactness:
    """Ranking quick gains as arrays before building candidates keeps the
    pool equal to scoring and sorting every compatible tuple."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        max_per_target=st.sampled_from([0, 1, 6]),
        min_quick_gain=st.sampled_from([None, -0.05, 0.0, 0.05]),
        constant_substitution=st.booleans(),
        max_total=st.sampled_from([4000, 30]),
    )
    def test_generate_equals_brute_force(
        self, seed, max_per_target, min_quick_gain, constant_substitution,
        max_total,
    ):
        netlist = make_random_netlist(LIB, 6, 20, 3, seed)
        estimator = PowerEstimator(
            netlist, SimulationProbability(netlist, num_patterns=256, seed=3)
        )
        options = CandidateOptions(
            max_per_target=max_per_target,
            min_quick_gain=min_quick_gain,
            constant_substitution=constant_substitution,
            max_total=max_total,
        )
        assert _pool(estimator, options) == _reference_pool(
            estimator, options
        )

    @pytest.mark.parametrize("max_per_target", [0, 1, 6])
    def test_sources_inside_the_dying_region(self, builder, max_per_target):
        netlist = absorbed_source_netlist(builder)
        estimator = exhaustive_estimator(netlist)
        options = CandidateOptions(max_per_target=max_per_target)
        reference = _reference_pool(estimator, options)
        assert _pool(estimator, options) == reference
        region = {
            g.name for g in dominated_region(netlist, netlist.gate("t"))
        }
        assert "n" in region
        if max_per_target:
            assert "OS2|t|n||||||" in [entry[0] for entry in reference]

    def test_constant_substitution(self, builder):
        from tests.transform.test_extensions import redundant_netlist

        netlist = redundant_netlist(builder)
        estimator = exhaustive_estimator(netlist)
        options = CandidateOptions(constant_substitution=True)
        reference = _reference_pool(estimator, options)
        assert _pool(estimator, options) == reference
        assert "OS2|h|||||||0" in [entry[0] for entry in reference]
