"""The fact engine behind ``AnalysisSuite.refresh``: simulation nominates,
SAT proves, and a signal simulation clears is never sent to the oracle."""

from repro.analysis import AnalysisSuite
from repro.netlist.build import NetlistBuilder


class TestFullRun:
    def test_constants_flow_through_tie_cells(self, lib):
        b = NetlistBuilder(lib, "tied")
        x = b.input("x")
        one = b.cell_gate("one", name="k1")
        g = b.and_(x, one, name="g")       # AND(x, 1) = x: not constant
        h = b.or_(x, one, name="h")        # OR(x, 1) = 1: constant
        b.output("zg", g)
        b.output("zh", h)
        facts = AnalysisSuite(b.build()).facts
        assert {fact.name: fact.value for fact in facts.constants} == {
            "k1": 1,
            "h": 1,
        }

    def test_backward_analysis_runs(self, lib, figure2):
        suite = AnalysisSuite(figure2)
        facts = suite.facts
        # Everything in figure2 reaches a PO and flips it on some
        # pattern, so no gate is nominated and no flip miter is built.
        assert facts.unobservables == []
        assert suite.oracle._flip_vars == {}
