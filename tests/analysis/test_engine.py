"""The fixed-point worklist solver: convergence, level caching, guards."""

import pytest

from repro.analysis.constants import ConstantAnalysis
from repro.analysis.engine import DataflowAnalysis, DataflowEngine
from repro.analysis.lattice import BOTTOM, TOP, FlatLattice
from repro.analysis.observability import ObservabilityAnalysis
from repro.netlist.build import NetlistBuilder


class CountingConstants(ConstantAnalysis):
    """Constant propagation that tallies transfer evaluations."""

    def __init__(self):
        self.calls = 0

    def transfer(self, gate, values):
        self.calls += 1
        return super().transfer(gate, values)


def chain_netlist(lib, length=5):
    b = NetlistBuilder(lib, "chain")
    signal = b.input("x")
    for index in range(length):
        signal = b.not_(signal, name=f"n{index}")
    b.output("z", signal)
    return b.build()


class TestFullRun:
    def test_every_gate_gets_a_value(self, lib, figure2):
        values = DataflowEngine(figure2).run(ConstantAnalysis())
        assert set(values) == set(figure2.gates)
        assert all(v is not BOTTOM for v in values.values())

    def test_dag_converges_in_one_ordered_sweep(self, lib):
        # The level-prioritised heap visits each node exactly once on a
        # DAG: one transfer call per gate, no chaotic re-iteration.
        netlist = chain_netlist(lib, length=8)
        analysis = CountingConstants()
        DataflowEngine(netlist).run(analysis)
        assert analysis.calls == len(netlist.gates)

    def test_constants_flow_through_tie_cells(self, lib):
        b = NetlistBuilder(lib, "tied")
        x = b.input("x")
        one = b.cell_gate("one", name="k1")
        g = b.and_(x, one, name="g")       # AND(x, 1) = x: not constant
        h = b.or_(x, one, name="h")        # OR(x, 1) = 1: constant
        b.output("zg", g)
        b.output("zh", h)
        values = DataflowEngine(b.build()).run(ConstantAnalysis())
        assert values["k1"] == 1
        assert values["h"] == 1
        assert values["g"] is TOP

    def test_backward_analysis_runs(self, lib, figure2):
        values = DataflowEngine(figure2).run(ObservabilityAnalysis({}))
        # Everything in figure2 reaches a PO, so nothing is blocked.
        assert all(values[name] is True for name in figure2.gates)

    def test_unknown_direction_rejected(self, lib, figure2):
        class Sideways(DataflowAnalysis):
            direction = "sideways"
            lattice = FlatLattice()

        with pytest.raises(ValueError, match="direction"):
            DataflowEngine(figure2).run(Sideways())

    def test_widen_after_validated(self, figure2):
        with pytest.raises(ValueError, match="widen_after"):
            DataflowEngine(figure2, widen_after=0)


class TestIncremental:
    """The level priorities follow structural edits."""

    def test_levels_cache_follows_structural_state(self, lib):
        netlist = chain_netlist(lib, length=3)
        engine = DataflowEngine(netlist)
        first = engine.levels()
        assert engine.levels() is first  # cached per structural state
        b_gate = netlist.gates["n2"]
        b_gate.cell = netlist.library["buf1"]
        netlist._invalidate()
        assert engine.levels() is not first
