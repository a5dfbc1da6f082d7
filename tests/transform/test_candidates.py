"""Tests for simulation-filtered candidate generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransformError
from repro.kernels.bits import int_to_words
from repro.netlist.observability import ObservabilityMaps
from repro.netlist.simulate import evaluate_cell
from repro.netlist.traverse import topological_order, transitive_fanout
from repro.power.estimate import PowerEstimator
from repro.power.probability import (
    PropagationProbability,
    SimulationProbability,
)
from repro.power.temporal import TemporalSimulationProbability
from repro.transform import candidates as candidates_module
from repro.transform.candidates import (
    CandidateOptions,
    CandidateWorkspace,
    _two_input_cells,
    generate_candidates,
)
from repro.transform.gain import (
    dominated_region,
    predict_dying_region,
    quick_gain,
    region_power,
)
from repro.transform.permissible import PERMISSIBLE, check_candidate
from repro.transform.substitution import (
    IS2,
    IS3,
    OS2,
    OS3,
    Substitution,
    apply_substitution,
)
from repro.library.genlib import parse_genlib
from repro.library.standard import STANDARD_GENLIB, standard_library
from tests.conftest import make_random_netlist

LIB = standard_library()
#: The standard cells plus an asymmetric 2-input cell, ``a·!b`` with
#: unequal pin loads: no one-operation fast path covers it, so its pair
#: tables come from the OR of its truth table's minterms.
ASYM_LIB = parse_genlib(
    STANDARD_GENLIB
    + "GATE andn2 1624 O=a*!b; PIN a NONINV 1.0 999 1.9 0.9 1.9 0.9\n"
    "PIN b INV 2.0 999 1.9 0.9 1.9 0.9\n",
    name="asym",
)


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

    def test_no_tie_moved_onto_its_own_constant(self):
        # The first constant move instantiates a tie gate; moving that gate
        # (the one apply reuses) onto its own constant would change nothing.
        options = CandidateOptions(constant_substitution=True)
        ties = 0
        for seed in range(30):
            netlist = make_random_netlist(LIB, 6, 20, 3, seed)
            for _round in range(2):
                estimator = PowerEstimator(
                    netlist, SimulationProbability(netlist, num_patterns=256)
                )
                constants = [
                    c.substitution
                    for c in generate_candidates(estimator, options)
                    if c.substitution.is_constant
                ]
                no_ops = [
                    sub for sub in constants
                    if sub.reused_tie(netlist) is netlist.gate(sub.target)
                ]
                assert no_ops == []
                ties += sum(g.cell.is_constant() for g in netlist.logic_gates())
                if constants:
                    apply_substitution(netlist, constants[0])
        assert ties > 0

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

    @pytest.mark.parametrize("cell, pins", [("inv1", 1), ("nand3", 3)])
    def test_os3_cells_override_rejects_other_arities(self, cell, pins):
        from repro.bench.suite import build_benchmark
        from repro.netlist.blif import write_blif
        from repro.telemetry import Tracer
        from repro.transform.optimizer import OptimizeOptions, power_optimize

        netlist = build_benchmark("rd53", LIB)
        before = write_blif(netlist)
        tracer = Tracer()
        options = OptimizeOptions.from_dict({
            "num_patterns": 64,
            "max_rounds": 1,
            "candidates": {"os3_cells": [cell]},
        })
        options.trace = tracer
        with pytest.raises(TransformError) as caught:
            power_optimize(netlist, options)
        message = str(caught.value)
        assert "candidates.os3_cells" in message
        assert repr(cell) in message and f"{pins}-input" in message
        # Raised before the first round: nothing traced, nothing moved.
        assert tracer.trace.rounds == []
        assert write_blif(netlist) == before

    def test_os3_cells_override_unknown_cell_is_a_library_error(self):
        from repro.errors import LibraryError

        netlist = make_random_netlist(standard_library(), 4, 8, 2, seed=5)
        with pytest.raises(LibraryError, match="has no cell 'nope'"):
            _two_input_cells(netlist, CandidateOptions(os3_cells=("nope",)))


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
    # An asymmetric cell is also tried with its pins swapped, unless a
    # round cell already computes the swapped function.
    pin_a = np.array([0b1010], dtype=np.uint64)
    pin_b = np.array([0b1100], dtype=np.uint64)
    functions = {int(evaluate_cell(c, [pin_a, pin_b], 1)[0]) for c in cells}
    both_orders = {
        c.name for c in cells
        if int(evaluate_cell(c, [pin_b, pin_a], 1)[0]) not in functions
    }

    def agrees(word, va, obs):
        return not ((word ^ va) & obs).any()

    def per_target(target, branch, avoid, obs):
        kind2, kind3 = (OS2, OS3) if branch is None else (IS2, IS3)
        enable2, enable3 = (
            (options.enable_os2, options.enable_os3)
            if branch is None
            else (options.enable_is2, options.enable_is3)
        )
        va = sim.words(target.name)
        tfo = {id(g) for g in transitive_fanout(netlist, [avoid])}
        legal = [
            g for g in stems
            if g is not target and g is not avoid and id(g) not in tfo
        ]
        tuples = []
        if options.constant_substitution:
            for value in (0, 1):
                tie_word = ~np.zeros_like(va) if value else np.zeros_like(va)
                substitution = Substitution(
                    kind2, target.name, "", branch=branch, constant=value
                )
                if (
                    library.constant(bool(value)) is not None
                    and agrees(tie_word, va, obs)
                    and substitution.reused_tie(netlist) is not target
                ):
                    tuples.append(substitution)
        if enable2:
            for source in legal:
                word = sim.words(source.name)
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
                        orders = [(first, second)]
                        if cell.name in both_orders:
                            orders.append((second, first))
                        for one, two in orders:
                            word = evaluate_cell(
                                cell,
                                [sim.words(one.name), sim.words(two.name)],
                                nwords,
                            )
                            if agrees(word, va, obs):
                                tuples.append(Substitution(
                                    kind3, target.name, one.name,
                                    branch=branch, source2=two.name,
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
            obs = int_to_words(maps.stem[target.name], nwords)
            pool += per_target(target, None, target, obs)
    for target in stems:
        if target.fanout_count() >= 2:
            for sink, pin in list(target.fanouts):
                obs = int_to_words(maps.branch(sink, pin), nwords)
                pool += per_target(target, (sink.name, pin), sink, obs)
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


def equal_sources_netlist(builder, names):
    """Gates named ``names`` and a target ``t``, all ``x ⊕ y``: the
    target's moves onto them tie on quick gain."""
    x, y, z = builder.inputs("x", "y", "z")
    for index, name in enumerate(names):
        builder.output(f"o{index}", builder.xor_(x, y, name=name))
    t = builder.xor_(x, y, name="t")
    builder.output("u", builder.and_(t, z, name="u"))
    return builder.build()


def unobservable_target_netlist(builder):
    """t only reaches an AND with a constant-0 signal, so its observability
    mask is all zero: every legal stem is compatible with it, directly and
    inverted, and the stems of equal activity tie wholesale."""
    a, b, c, d, e, f = builder.inputs("a", "b", "c", "d", "e", "f")
    zero = builder.and_(a, builder.not_(a, name="na"), name="zero")
    for name, (left, right) in {
        "p": (a, b), "q": (c, d), "r": (e, f), "s": (b, c),
    }.items():
        builder.output(f"o_{name}", builder.xor_(left, right, name=name))
    t = builder.xor_(d, e, name="t")
    builder.output("u", builder.and_(t, zero, name="u"))
    return builder.build()


def constant_region_netlist(builder):
    """t is unobservable and its dominated region holds ``b_one = !b_tie``
    for a tie cell ``b_tie``: both switch never, so keeping either as a
    source releases exactly what the whole region does, and their exact
    gains tie with the moves onto ``zero``, the constant signal outside
    the region."""
    a, d = builder.inputs("a", "d")
    zero = builder.and_(a, builder.not_(a, name="na"), name="zero")
    one = builder.not_(builder.cell_gate("zero", name="b_tie"), name="b_one")
    t = builder.and_(one, d, name="t")
    builder.output("u", builder.and_(t, zero, name="u"))
    return builder.build()


def _floor_cases(estimator, limit):
    """How each stem row's moves by sources in its dominated region
    compare with the row's fast floor (the ``limit``-th best quick gain
    of its other moves): their fast-path bound below the floor by more
    than float noise, equal to it, or their exact gain above it."""
    netlist = estimator.netlist
    every = _reference_pool(
        estimator, CandidateOptions(max_per_target=10**6, max_total=10**9)
    )
    rows = {}
    for identity, pg_a, pg_b, _area in every:
        fields = identity.split("|")
        if fields[0] in (OS2, OS3):
            rows.setdefault(fields[1], []).append(
                (fields[2], fields[5], pg_a, pg_b)
            )
    cases = set()
    for target, moves in rows.items():
        region = dominated_region(netlist, netlist.gate(target))
        inside = {g.name for g in region}
        released = region_power(estimator, region)
        fast = sorted(
            (pg_a + pg_b for one, two, pg_a, pg_b in moves
             if one not in inside and two not in inside),
            reverse=True,
        )
        if len(fast) < limit:
            continue
        floor = fast[limit - 1]
        for one, two, pg_a, pg_b in moves:
            if one in inside or two in inside:
                bound = released + pg_b
                if bound < floor - 1e-9 * (abs(released) + abs(pg_b)):
                    cases.add("below")
                elif bound == floor:
                    cases.add("tie")
                if pg_a + pg_b > floor:
                    cases.add("beat")
    return cases


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

    @pytest.mark.parametrize("seed", [5, 23, 71])
    def test_temporal_engine(self, seed):
        # Pair activities come from the cycle-t and t+1 words (rows_next).
        netlist = make_random_netlist(LIB, 6, 20, 3, seed)
        estimator = PowerEstimator(
            netlist,
            TemporalSimulationProbability(netlist, num_patterns=256, seed=3),
        )
        options = CandidateOptions()
        assert _pool(estimator, options) == _reference_pool(
            estimator, options
        )

    @pytest.mark.parametrize("temporal", [False, True])
    @pytest.mark.parametrize("seed", [5, 23])
    def test_asymmetric_insertion_cell(self, seed, temporal):
        netlist = make_random_netlist(ASYM_LIB, 6, 20, 3, seed)
        engine = (
            TemporalSimulationProbability if temporal
            else SimulationProbability
        )
        estimator = PowerEstimator(
            netlist, engine(netlist, num_patterns=256, seed=3)
        )
        assert "andn2" in [c.name for c in ASYM_LIB.insertion_cells()]
        options = CandidateOptions(max_per_target=400)
        reference = _reference_pool(estimator, options)
        assert _pool(estimator, options) == reference
        # a·!b is not b·!a: some source pair is proposed in both orders.
        pairs = {
            (fields[2], fields[5])
            for fields in (entry[0].split("|") for entry in reference)
            if fields[7] == "andn2"
        }
        assert any((second, first) in pairs for first, second in pairs)

    @pytest.mark.parametrize(
        "engine,patterns",
        [
            (SimulationProbability, 256),
            (TemporalSimulationProbability, 256),
            # Compatibility is densest at one word of patterns.
            (SimulationProbability, 64),
            # c/192 and (192 - c)/192 round differently: every cell's
            # activity must come from its own words, not its complement's.
            (SimulationProbability, 192),
        ],
    )
    @pytest.mark.parametrize("seed", [5, 23])
    def test_pool_independent_of_chunk_size(
        self, monkeypatch, engine, patterns, seed
    ):
        netlist = make_random_netlist(LIB, 6, 20, 3, seed)
        estimator = PowerEstimator(
            netlist, engine(netlist, num_patterns=patterns, seed=3)
        )
        options = CandidateOptions()
        reference = _reference_pool(estimator, options)
        # One target (and one pair-table job) per chunk, and one chunk
        # for every target.
        for chunk in (1, 10_000):
            monkeypatch.setattr(candidates_module, "_CHUNK", chunk)
            monkeypatch.setattr(candidates_module, "_PAIR_BATCH", chunk)
            assert _pool(estimator, options) == reference

    def test_constant_substitution(self, builder):
        from tests.transform.test_extensions import redundant_netlist

        netlist = redundant_netlist(builder)
        estimator = exhaustive_estimator(netlist)
        options = CandidateOptions(constant_substitution=True)
        reference = _reference_pool(estimator, options)
        assert _pool(estimator, options) == reference
        assert "OS2|h|||||||0" in [entry[0] for entry in reference]

    @pytest.mark.parametrize("max_per_target", [1, 2, 6])
    def test_names_that_prefix_each_other(self, builder, max_per_target):
        # By name "a" < "a_1" < "ab", by candidate ID "a_1" < "ab" < "a".
        netlist = equal_sources_netlist(builder, ["a", "ab", "a_1"])
        estimator = exhaustive_estimator(netlist)
        options = CandidateOptions(max_per_target=max_per_target)
        reference = _reference_pool(estimator, options)
        assert _pool(estimator, options) == reference
        moves = [entry[0] for entry in reference]
        kept = [
            name for name in ("a_1", "ab", "a")
            if Substitution(OS2, "t", name).candidate_id() in moves
        ]
        assert kept == ["a_1", "ab", "a"][:max_per_target]

    @pytest.mark.parametrize("max_per_target", [2, 6])
    def test_tie_flood_from_an_unobservable_target(
        self, builder, max_per_target
    ):
        netlist = unobservable_target_netlist(builder)
        estimator = exhaustive_estimator(netlist)
        assert ObservabilityMaps(estimator.engine.sim).stem["t"] == 0
        options = CandidateOptions(max_per_target=max_per_target)
        assert _pool(estimator, options) == _reference_pool(
            estimator, options
        )
        # More of t's moves tie with its max_per_target-th best than fit.
        every = _reference_pool(
            estimator, CandidateOptions(max_per_target=10**6)
        )
        quick = sorted(
            (pg_a + pg_b for identity, pg_a, pg_b, _area in every
             if identity.startswith("OS2|t|")),
            reverse=True,
        )
        floor = quick[max_per_target - 1]
        assert sum(gain >= floor for gain in quick) > max_per_target

    @pytest.mark.parametrize("max_per_target", [1, 2, 6])
    def test_gate_name_holding_the_id_separator(self, builder, max_per_target):
        # By candidate ID "p|q" < "p" < "p|"; ranking names by name + "|"
        # would give "p" < "p|q" < "p|".
        netlist = equal_sources_netlist(builder, ["p", "p|", "p|q"])
        estimator = exhaustive_estimator(netlist)
        options = CandidateOptions(max_per_target=max_per_target)
        reference = _reference_pool(estimator, options)
        assert _pool(estimator, options) == reference
        moves = [entry[0] for entry in reference]
        kept = [
            name for name in ("p|q", "p", "p|")
            if Substitution(OS2, "t", name).candidate_id() in moves
        ]
        assert kept == ["p|q", "p", "p|"][:max_per_target]

    def test_exact_gain_tied_with_the_floor(self, builder):
        # The moves onto b_one and b_tie have the bound, and the exact
        # gain, of the move onto zero that sets the floor; by candidate ID
        # they rank first, so they must be scored, not skipped.
        netlist = constant_region_netlist(builder)
        estimator = exhaustive_estimator(netlist)
        region = dominated_region(netlist, netlist.gate("t"))
        assert {g.name for g in region} == {"t", "b_one", "b_tie"}
        options = CandidateOptions(max_per_target=1)
        reference = _reference_pool(estimator, options)
        assert _pool(estimator, options) == reference
        assert Substitution(OS2, "t", "b_one").candidate_id() in [
            entry[0] for entry in reference
        ]

    @pytest.mark.parametrize("seed", [3, 21])
    def test_sources_in_the_region_around_the_fast_floor(self, seed):
        # The exact path is skipped only for moves whose bound lies below
        # the floor; a bound equal to it, or an exact gain above it, is
        # scored and ranked.
        netlist = make_random_netlist(LIB, 6, 20, 3, seed)
        estimator = PowerEstimator(
            netlist, SimulationProbability(netlist, num_patterns=256, seed=3)
        )
        cases = set()
        for max_per_target in (1, 2, 3, 6):
            options = CandidateOptions(max_per_target=max_per_target)
            assert _pool(estimator, options) == _reference_pool(
                estimator, options
            )
            cases |= _floor_cases(estimator, max_per_target)
        assert cases == {"below", "tie", "beat"}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), patterns=st.sampled_from([64, 256]))
def test_in_region_sources_bound_the_exact_gain(seed, patterns):
    """Keeping sources of an output move shrinks its dying region to
    Dom(t) minus their transitive fanin, so the region power released
    never exceeds the whole region's (the exact path's pruning bound)."""
    netlist = make_random_netlist(LIB, 6, 20, 3, seed)
    estimator = PowerEstimator(
        netlist,
        SimulationProbability(netlist, num_patterns=patterns, seed=3),
    )
    stems = list(topological_order(netlist))
    for target in stems:
        if target.is_input or not target.fanout_count():
            continue
        region = dominated_region(netlist, target)
        released = region_power(estimator, region)
        tfo = {id(g) for g in transitive_fanout(netlist, [target])}
        legal = [g for g in stems if g is not target and id(g) not in tfo]
        for source in region[1:]:
            moves = [Substitution(OS2, target.name, source.name)] + [
                Substitution(
                    OS3, target.name, source.name, source2=other.name,
                    new_cell="nand2",
                )
                for other in legal if other is not source
            ]
            for move in moves:
                kept = region_power(
                    estimator, predict_dying_region(netlist, move)
                )
                assert kept <= released + 1e-9 * abs(released)
