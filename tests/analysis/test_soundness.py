"""Every emitted fact survives independent re-derivation.

Two layers: the bundled golden circuits (the acceptance gate ``powder
analyze --check-soundness`` also runs in CI), and a Hypothesis sweep
over :mod:`repro.fuzz` generated netlists — all small enough that the
oracle is exhaustive simulation, so a pass here is a complete proof for
that circuit, not a sampled one.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import AnalysisSuite
from repro.analysis.soundness import EXHAUSTIVE_LIMIT, check_soundness
from repro.fuzz.generator import SHAPES, GeneratorConfig, random_mapped_netlist
from repro.library.standard import standard_library
from repro.netlist.blif import parse_blif_file
from repro.pipeline import run_pipeline
from repro.transform.optimizer import OptimizeOptions

BLIF_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "blif"
GOLDEN = ("rd53", "misex1", "sqrt8", "ttt2")


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_circuits_have_zero_unsound_facts(name, lib):
    netlist = parse_blif_file(BLIF_DIR / f"{name}.blif", lib)
    facts = AnalysisSuite(netlist).facts
    report = check_soundness(netlist, facts)
    assert report.unsound == []
    assert report.unverified == 0
    assert report.confirmed == report.checked
    assert report.checked >= facts.total() - len(facts.equivalences)


#: Per-category fact counts: constants / unobservables / phases / classes.
GOLDEN_COUNTS = {
    "rd53": (0, 0, 5, 8),
    "misex1": (0, 0, 8, 9),
    "sqrt8": (0, 0, 6, 6),
    "ttt2": (1, 2, 32, 34),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_fact_counts_are_pinned(name, lib):
    netlist = parse_blif_file(BLIF_DIR / f"{name}.blif", lib)
    facts = AnalysisSuite(netlist).facts
    assert tuple(facts.counts().values()) == GOLDEN_COUNTS[name]
    if name == "ttt2":
        assert [fact.to_dict() for fact in facts.constants] == [
            {"name": "tie30", "value": 0, "proof": "sat"}
        ]
        assert [fact.to_dict() for fact in facts.unobservables] == [
            {"name": "x22", "reason": "dead", "proof": "structural"},
            {"name": "x23", "reason": "dead", "proof": "structural"},
        ]


@pytest.mark.parametrize("name", ["rd53", "ttt2"])
def test_facts_read_after_powder_match_a_fresh_suite(name, lib):
    # The fact base is read before a pipeline's powder stage edits the
    # netlist and again afterwards: the second read must recompute, not
    # reuse.
    netlist = parse_blif_file(BLIF_DIR / f"{name}.blif", lib)
    suite = AnalysisSuite(netlist)
    before = suite.facts
    outcome = run_pipeline(
        netlist,
        "lint(facts=true); powder(max_rounds=2); lint(facts=true)",
        OptimizeOptions(num_patterns=512),
    )
    assert outcome.optimize_result.moves
    after = suite.facts
    assert suite.counters == {"full": 2}
    assert after is not before
    assert after == AnalysisSuite(netlist).facts
    assert check_soundness(netlist, after).unsound == []


def test_ttt2_exercises_the_sat_oracle_path(lib):
    # 24 inputs: past the exhaustive bound, so the report must come
    # from the fresh-SAT method (the code path CI relies on).
    netlist = parse_blif_file(BLIF_DIR / "ttt2.blif", lib)
    assert len(netlist.input_names) > EXHAUSTIVE_LIMIT
    facts = AnalysisSuite(netlist).facts
    report = check_soundness(netlist, facts)
    assert report.method == "sat"
    assert report.ok


def test_small_circuits_use_the_exhaustive_method(lib, figure2):
    report = check_soundness(figure2, AnalysisSuite(figure2).facts)
    assert report.method == "exhaustive"
    assert report.ok


def test_report_detects_an_injected_lie(lib, figure2):
    facts = AnalysisSuite(figure2).facts
    from repro.analysis.facts import ConstantFact

    facts.constants.append(ConstantFact("e", 1, "forged"))
    report = check_soundness(figure2, facts)
    assert not report.ok
    assert any("e" in text for text in report.unsound)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_generated_netlists_have_zero_unsound_facts(seed):
    # Every shape on every example, so no shape depends on sampling.
    for shape in SHAPES:
        config = GeneratorConfig(
            seed=seed, shape=shape, min_inputs=3, max_inputs=7,
            min_gates=6, max_gates=20,
        )
        netlist = random_mapped_netlist(config, standard_library())
        facts = AnalysisSuite(netlist, num_patterns=128).facts
        report = check_soundness(netlist, facts)
        assert report.method == "exhaustive", shape  # <= 7 inputs
        assert report.unsound == [], shape
        assert report.unverified == 0, shape


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_generated_netlists_survive_an_incremental_edit(seed):
    # Facts refreshed after a structural edit carry the same soundness
    # contract as a from-scratch run.
    config = GeneratorConfig(
        seed=seed, shape="inverter_chain", min_inputs=3, max_inputs=6,
        min_gates=8, max_gates=18,
    )
    netlist = random_mapped_netlist(config, standard_library())
    suite = AnalysisSuite(netlist, num_patterns=128)
    suite.facts
    # Deterministic edit: turn the first inverter into a buffer.
    target = next(
        (g for g in netlist.logic_gates() if g.cell.is_inverter()), None
    )
    if target is None:
        return
    target.cell = netlist.library["buf1"]
    netlist._invalidate()
    report = check_soundness(netlist, suite.facts)
    assert report.unsound == []
