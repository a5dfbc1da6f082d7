"""The optimizer's determinism guarantee: explicit, canonical tie-breaking.

Candidates with equal quick gain are ordered by
:meth:`Substitution.candidate_id`, so a run's move sequence is a pure
function of (netlist, options) — independent of hash seeds, float-tie
enumeration order, and Python build.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.fuzz.generator import GeneratorConfig, random_mapped_netlist
from repro.transform import candidates as candidates_module
from repro.transform.candidates import (
    Candidate,
    CandidateOptions,
    CandidateWorkspace,
    _head,
    _ranks,
)
from repro.transform.gain import GainBreakdown
from repro.transform.optimizer import OptimizeOptions, power_optimize
from repro.transform.substitution import IS2, OS2, OS3, Substitution
from tests.transform.test_candidates import (
    exhaustive_estimator,
    unobservable_target_netlist,
)


def test_candidate_id_is_canonical_and_stable():
    sub = Substitution(OS2, "a", "b", invert1=True)
    assert sub.candidate_id() == "OS2|a|b|~|||||"
    is2 = Substitution(IS2, "a", "b", branch=("sink", 1))
    assert is2.candidate_id() == "IS2|a|b||sink.1||||"
    os3 = Substitution(OS3, "a", "b", source2="c", new_cell="nand2")
    assert os3.candidate_id() == "OS3|a|b|||c||nand2|"


def test_candidate_ids_distinguish_distinct_moves():
    subs = [
        Substitution(OS2, "a", "b"),
        Substitution(OS2, "a", "b", invert1=True),
        Substitution(OS2, "a", "c"),
        Substitution(IS2, "a", "b", branch=("s", 0)),
        Substitution(IS2, "a", "b", branch=("s", 1)),
        Substitution(OS3, "a", "b", source2="c", new_cell="nand2"),
        Substitution(OS3, "a", "b", source2="c", new_cell="nor2"),
    ]
    ids = [s.candidate_id() for s in subs]
    assert len(set(ids)) == len(ids)


def _array_ranking(candidates, limit):
    """One target row's best ``limit`` OS2 moves, ranked the way candidate
    generation ranks a row's entries: source names by ``name + "|"``,
    then one lexsort by (row, -quick, tie)."""
    names = [c.substitution.source1 for c in candidates]
    keep = _head(
        np.zeros(len(candidates), dtype=np.intp),
        np.array([c.quick for c in candidates]),
        _ranks([name + "|" for name in names]),
        limit,
    )
    return [candidates[i] for i in keep]


def test_equal_gains_rank_in_canonical_order():
    gain = GainBreakdown(pg_a=1.0, pg_b=0.0)
    shuffled = [
        Candidate(Substitution(OS2, "a", name), gain)
        for name in ("g9", "g2", "g5", "g1")
    ]
    kept = _array_ranking(shuffled, 10)
    assert [c.substitution.source1 for c in kept] == ["g1", "g2", "g5", "g9"]


def test_better_gain_still_wins_over_canonical_order():
    low = GainBreakdown(pg_a=0.5, pg_b=0.0)
    high = GainBreakdown(pg_a=2.0, pg_b=0.0)
    kept = _array_ranking(
        [
            Candidate(Substitution(OS2, "a", "g1"), low),
            Candidate(Substitution(OS2, "a", "g9"), high),
        ],
        10,
    )
    assert [c.substitution.source1 for c in kept] == ["g9", "g1"]


def test_tie_flood_builds_at_most_max_per_target_per_row(
    builder, monkeypatch
):
    """Ties are broken before building: a row whose floor ties with many
    entries still constructs only the ``max_per_target`` it keeps."""
    estimator = exhaustive_estimator(unobservable_target_netlist(builder))
    rows = Counter()
    original = Candidate.__init__

    def counting(self, substitution, gain):
        rows[substitution.target, substitution.branch] += 1
        original(self, substitution, gain)

    monkeypatch.setattr(candidates_module.Candidate, "__init__", counting)
    options = CandidateOptions(max_per_target=6)
    pool = CandidateWorkspace(estimator).generate(options)
    assert rows[("t", None)] == 6
    assert max(rows.values()) <= options.max_per_target
    assert sum(rows.values()) == len(pool)


def test_repeated_runs_reproduce_the_move_sequence(lib):
    options = OptimizeOptions(num_patterns=256, max_rounds=6)
    moves = []
    for _ in range(2):
        netlist = random_mapped_netlist(
            GeneratorConfig(seed=12, shape="high_fanout"), lib
        )
        result = power_optimize(netlist, options)
        moves.append([str(m.substitution) for m in result.moves])
    assert moves[0] == moves[1]
    assert moves[0], "the chosen seed must produce at least one move"


def test_repeated_runs_produce_byte_identical_traces(lib):
    """Trace-level determinism: the entire deterministic section of the
    run trace — move sequence keyed by ``Substitution.candidate_id()``,
    gain decompositions, per-round statistics, counters — serializes to
    byte-identical JSON across runs.  Only wall-times may differ."""
    from repro.telemetry import Tracer, compare_traces

    serialized = []
    traces = []
    for _ in range(2):
        netlist = random_mapped_netlist(
            GeneratorConfig(seed=12, shape="high_fanout"), lib
        )
        tracer = Tracer()
        result = power_optimize(
            netlist,
            OptimizeOptions(num_patterns=256, max_rounds=6, trace=tracer),
        )
        traces.append(result.trace)
        serialized.append(result.trace.deterministic_json().encode())
    assert serialized[0] == serialized[1]
    assert compare_traces(traces[0], traces[1]).ok
    assert traces[0].moves, "the chosen seed must produce at least one move"
    # Every trace event is keyed by the canonical tie-break ID, never by
    # enumeration order or hashing.
    for move in traces[0].moves:
        assert move.candidate_id.count("|") == 8
