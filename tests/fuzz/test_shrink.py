"""Delta-debugging shrink: structural reduction and the broken-transform
acceptance case (inject a bug, catch it, shrink to a tiny reproducer)."""

from __future__ import annotations

from repro.fuzz.generator import GeneratorConfig, random_mapped_netlist
from repro.fuzz.harness import (
    FuzzOptions,
    cell_swap_mutator,
    replay_corpus,
    run_case,
)
from repro.fuzz.shrink import shrink_netlist


def test_shrink_reduces_while_preserving_predicate(lib):
    netlist = random_mapped_netlist(
        GeneratorConfig(seed=8, min_gates=20, max_gates=24), lib
    )

    def has_multi_input_gate(candidate):
        return any(g.num_inputs >= 2 for g in candidate.logic_gates())

    assert has_multi_input_gate(netlist)
    shrunk = shrink_netlist(netlist, has_multi_input_gate)
    assert has_multi_input_gate(shrunk)
    assert shrunk.num_gates() < netlist.num_gates()
    assert shrunk.outputs


def test_shrink_never_mutates_the_input(lib):
    netlist = random_mapped_netlist(GeneratorConfig(seed=8), lib)
    before = netlist.num_gates()
    shrink_netlist(netlist, lambda n: n.num_gates() >= 1)
    assert netlist.num_gates() == before


def test_shrink_respects_trial_budget(lib):
    netlist = random_mapped_netlist(
        GeneratorConfig(seed=8, min_gates=20, max_gates=24), lib
    )
    calls = []

    def predicate(candidate):
        calls.append(1)
        return True

    shrink_netlist(netlist, predicate, max_trials=3)
    assert len(calls) <= 3


def test_broken_transform_caught_and_shrunk(lib, tmp_path):
    """The acceptance case: a deliberately broken transform (cell-swap
    corruption after optimization) must be caught by the oracle and shrunk
    to a reproducer of at most 10 gates."""
    options = FuzzOptions(
        num_patterns=256,
        mutator=cell_swap_mutator,
        shrink=True,
        corpus_dir=tmp_path,
        check_rerun=False,
    )
    case = run_case(GeneratorConfig(seed=2, shape="high_fanout"), options)
    assert not case.ok
    assert any("[equivalence]" in f or "[metrics]" in f for f in case.failures)
    assert case.reproducer is not None
    assert case.reproducer.num_gates() <= 10
    assert case.reproducer_path is not None and case.reproducer_path.exists()
    header = case.reproducer_path.read_text().splitlines()
    assert header[0].startswith("# powder fuzz reproducer")
    assert any("replay:" in line for line in header[:4])

    # The written reproducer replays mechanically (and passes: the bug
    # lived in the injected mutator, not in the netlist).
    replay = replay_corpus(
        tmp_path,
        FuzzOptions(num_patterns=256, check_rerun=False),
    )
    assert len(replay.cases) == 1
