"""The four fact categories on hand-built circuits with known answers."""

from pathlib import Path

import pytest

from repro.analysis import AnalysisSuite
from repro.analysis import suite as suite_module
from repro.analysis.facts import PhaseFact
from repro.analysis.oracle import FactOracle
from repro.netlist.blif import parse_blif_file
from repro.netlist.build import NetlistBuilder
from repro.netlist.traverse import po_reachable

BLIF_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "blif"


class ExhaustedOracle(FactOracle):
    """A FactOracle whose every solve runs out of budget (UNKNOWN)."""

    def _solve(self, assumptions):
        self.counters["solve_calls"] += 1
        self.counters["unknown"] += 1
        return None


@pytest.fixture
def exhausted(monkeypatch):
    monkeypatch.setattr(suite_module, "FactOracle", ExhaustedOracle)


def constants_of(facts):
    return {fact.name: (fact.value, fact.proof) for fact in facts.constants}


def unobservables_of(facts):
    return {
        fact.name: (fact.reason, fact.proof) for fact in facts.unobservables
    }


class TestConstants:
    def test_tie_cells_and_propagation(self, lib):
        b = NetlistBuilder(lib, "const")
        x = b.input("x")
        zero = b.cell_gate("zero", name="k0")
        g = b.and_(x, zero, name="g")     # AND(x, 0) == 0
        h = b.xor_(g, zero, name="h")     # XOR(0, 0) == 0
        b.output("z", h)
        facts = AnalysisSuite(b.build()).facts
        assert constants_of(facts) == {
            "k0": (0, "sat"),
            "g": (0, "sat"),
            "h": (0, "sat"),
        }

    def test_reconvergent_constant_needs_the_sat_tier(self, lib):
        # OR(x, INV(x)) == 1: no tie cell feeds it, so only the flat
        # signature nominates g and only the oracle proves it.
        b = NetlistBuilder(lib, "reconv")
        x = b.input("x")
        inv = b.not_(x, name="nx")
        g = b.or_(x, inv, name="g")
        b.output("z", g)
        facts = AnalysisSuite(b.build()).facts
        assert constants_of(facts) == {"g": (1, "sat")}

    def test_no_sat_means_no_second_tier(self, lib, exhausted):
        # Every nominee needs an UNSAT answer: with the budget exhausted
        # on every query, no constant and no blocked gate survives, while
        # the structural facts (dead cone, phase chain) do.
        b = NetlistBuilder(lib, "reconv")
        x, y = b.inputs("x", "y")
        zero = b.cell_gate("zero", name="k0")
        g = b.or_(x, b.not_(x, name="nx"), name="g")
        masked = b.and_(b.xor_(x, y, name="v"), zero, name="masked")
        b.not_(y, name="dead1")
        b.output("z", b.and_(g, b.or_(masked, y, name="m"), name="out"))
        suite = AnalysisSuite(b.build())
        facts = suite.facts
        assert suite.oracle.counters["unknown"] > 0
        assert suite.oracle.counters["proofs"] == 0
        assert facts.constants == []
        assert unobservables_of(facts) == {"dead1": ("dead", "structural")}
        assert facts.phases == [
            PhaseFact("dead1", "y", 1, 1),
            PhaseFact("nx", "x", 1, 1),
        ]


class TestPhases:
    def test_chain_roots_parity_and_depth(self, lib):
        b = NetlistBuilder(lib, "phase")
        x = b.input("x")
        g = b.and_(x, x, name="g")
        n1 = b.not_(g, name="n1")
        n2 = b.not_(n1, name="n2")
        n3 = b.cell_gate("buf1", n2, name="n3")
        b.output("z", n3)
        facts = AnalysisSuite(b.build()).facts
        # g is not a chain cell: it roots the chain and gets no fact.
        assert facts.phases == [
            PhaseFact("n1", "g", 1, 1),
            PhaseFact("n2", "g", 0, 2),  # double inversion cancels
            PhaseFact("n3", "g", 0, 3),  # buffer keeps parity
        ]

    def test_suite_emits_only_chain_facts(self, lib):
        b = NetlistBuilder(lib, "phase")
        x = b.input("x")
        n1 = b.not_(x, name="n1")
        b.output("z", b.and_(n1, x, name="g"))
        facts = AnalysisSuite(b.build()).facts
        assert facts.phases == [PhaseFact("n1", "x", 1, 1)]


class TestObservability:
    def test_dead_cone_is_structural(self, lib):
        b = NetlistBuilder(lib, "dead")
        x = b.input("x")
        b.not_(x, name="dead1")
        b.output("z", b.and_(x, x, name="live"))
        netlist = b.build()
        assert po_reachable(netlist) == {"x", "live"}
        facts = AnalysisSuite(netlist).facts
        assert unobservables_of(facts) == {"dead1": ("dead", "structural")}

    def test_blocked_cone_is_sat_confirmed(self, lib):
        # g is ANDed against a proven 0, so g never reaches the PO.
        b = NetlistBuilder(lib, "blocked")
        x, y = b.inputs("x", "y")
        zero = b.cell_gate("zero", name="k0")
        g = b.xor_(x, y, name="g")
        masked = b.and_(g, zero, name="masked")
        b.output("z", b.or_(masked, x, name="out"))
        facts = AnalysisSuite(b.build()).facts
        assert unobservables_of(facts)["g"] == ("blocked", "sat")

    def test_fanin_of_a_blocked_sink_needs_no_flip_miter(
        self, lib, monkeypatch
    ):
        # g is ANDed against a proven 0, and h feeds only g: once g's flip
        # miter proves g blocked, h is blocked by construction.  y feeds
        # two sinks, so it takes a flip miter of its own.
        b = NetlistBuilder(lib, "implied")
        x, y = b.inputs("x", "y")
        zero = b.cell_gate("zero", name="k0")
        h = b.and_(x, y, name="h")
        g = b.xor_(h, y, name="g")
        masked = b.and_(g, zero, name="masked")
        b.output("z", b.or_(masked, x, name="out"))
        solves = {}
        prove = FactOracle.prove_unobservable

        def counted(oracle, name):
            before = oracle.counters["solve_calls"]
            verdict = prove(oracle, name)
            solves[name] = oracle.counters["solve_calls"] - before
            return verdict

        monkeypatch.setattr(FactOracle, "prove_unobservable", counted)
        facts = AnalysisSuite(b.build()).facts
        assert unobservables_of(facts) == {
            name: ("blocked", "sat") for name in ("g", "h", "y")
        }
        assert solves == {"g": 1, "y": 1}

    def test_reconvergence_counterexample_is_not_promoted(self, lib):
        # The ALGORITHMS.md §18 counterexample: s = OR(g, INV(g)) is
        # constant 1, but flipping g rewrites s itself, so g must NOT
        # be called unobservable just because its sink is constant.
        b = NetlistBuilder(lib, "trap")
        x, y = b.inputs("x", "y")
        g = b.and_(x, y, name="g")
        s = b.or_(g, b.not_(g, name="ng"), name="s")
        # s is constant 1, and g also feeds the PO through s only.
        b.output("z", s)
        out = b.and_(g, x, name="keep")
        b.output("z2", out)
        facts = AnalysisSuite(b.build()).facts
        assert "g" not in unobservables_of(facts)


class TestEquivalence:
    def test_duplicate_and_complement_classes(self, lib):
        b = NetlistBuilder(lib, "equiv")
        x, y = b.inputs("x", "y")
        g1 = b.and_(x, y, name="g1")
        g2 = b.and_(x, y, name="g2")           # structural duplicate
        g3 = b.nand_(x, y, name="g3")          # complement cone
        b.output("z1", b.or_(g1, g2, name="o1"))
        b.output("z2", g3)
        facts = AnalysisSuite(b.build()).facts
        [cls] = facts.equivalences
        assert cls.representative == "g1"
        assert cls.members == {"g1": 0, "g2": 0, "g3": 1, "o1": 0}
        assert cls.proofs == {"g2": "structural", "g3": "sat", "o1": "sat"}

    def test_without_oracle_only_structural_merges(self, lib, exhausted):
        b = NetlistBuilder(lib, "equiv")
        x, y = b.inputs("x", "y")
        g1 = b.and_(x, y, name="g1")
        g2 = b.and_(x, y, name="g2")
        g3 = b.nand_(x, y, name="g3")
        b.output("z1", b.or_(g1, g2, name="o1"))
        b.output("z2", g3)
        facts = AnalysisSuite(b.build()).facts
        # The signature buckets g3 and o1 with g1, but without an
        # UNSAT answer only the structural duplicate may merge.
        [cls] = facts.equivalences
        assert cls.members == {"g1": 0, "g2": 0}
        assert cls.proofs == {"g2": "structural"}

    def test_tokens_are_pointwise_identical_signals(self, lib):
        netlist = parse_blif_file(BLIF_DIR / "rd53.blif", lib)
        suite = AnalysisSuite(netlist)
        facts = suite.facts
        values = suite._sim.values
        full = suite._sim.full
        assert len(facts.equivalences) == 8
        for cls in facts.equivalences:
            rep = values[cls.representative]
            for name, parity in cls.members.items():
                assert values[name] == (rep ^ full if parity else rep)
