"""Tests for the signal-probability engines."""

import pytest

from repro.errors import NetlistError
from repro.kernels.packed import PackedCircuit
from repro.power.probability import (
    ExactBddProbability,
    PropagationProbability,
    SimulationProbability,
)
from repro.power.temporal import TemporalSimulationProbability


class TestSimulationEngine:
    def test_exhaustive_is_exact(self, figure2):
        engine = SimulationProbability(figure2, exhaustive=True)
        assert engine.probability("e") == 0.25
        assert engine.probability("d") == 0.5
        assert engine.probability("f") == 0.25
        assert engine.probability("a") == 0.5

    def test_exhaustive_rejects_bias(self, figure2):
        with pytest.raises(NetlistError):
            SimulationProbability(
                figure2, exhaustive=True, input_probs={"a": 0.9}
            )

    def test_monte_carlo_close_to_exact(self, figure2):
        engine = SimulationProbability(figure2, num_patterns=16384, seed=1)
        assert engine.probability("e") == pytest.approx(0.25, abs=0.02)

    def test_deterministic(self, figure2):
        a = SimulationProbability(figure2, num_patterns=512, seed=9)
        b = SimulationProbability(figure2, num_patterns=512, seed=9)
        for name in figure2.gates:
            assert a.probability(name) == b.probability(name)

    @pytest.mark.parametrize(
        "engine, states",
        [(SimulationProbability, 1), (TemporalSimulationProbability, 2)],
    )
    def test_one_full_simulation_per_state(
        self, figure2, monkeypatch, engine, states
    ):
        calls = []
        simulate = PackedCircuit.simulate

        def counted(packed, *args):
            calls.append(packed)
            return simulate(packed, *args)

        monkeypatch.setattr(PackedCircuit, "simulate", counted)
        built = engine(figure2, num_patterns=512, seed=3)
        assert len(calls) == states
        built.refresh()  # the public full re-simulation
        assert len(calls) == 2 * states

    def test_update_fanout_matches_refresh(self, figure2):
        engine = SimulationProbability(figure2, exhaustive=True)
        f = figure2.gate("f")
        e = figure2.gate("e")
        figure2.replace_fanin(f, 0, e)  # f = e & b now
        engine.update_fanout([f])
        incremental = {n: engine.probability(n) for n in figure2.gates}
        engine.refresh()
        full = {n: engine.probability(n) for n in figure2.gates}
        assert incremental == full

    def test_update_reports_word_changes_that_keep_the_probability(
        self, builder
    ):
        # g = !a becomes g = !b: new words, same popcount, same p.
        a, b = builder.inputs("a", "b")
        g = builder.not_(a, name="g")
        builder.output("o", g)
        netlist = builder.build()
        engine = SimulationProbability(netlist, exhaustive=True)
        words = engine.sim.words("g").copy()
        before = engine.probability("g")
        netlist.replace_fanin(g, 0, b)
        changed = engine.update_fanout([g])
        assert engine.probability("g") == before
        assert not (engine.sim.words("g") == words).all()
        assert changed == ["g"]

    def test_update_handles_removed_gates(self, figure2):
        engine = SimulationProbability(figure2, exhaustive=True)
        f = figure2.gate("f")
        figure2.replace_fanin(f, 0, figure2.gate("e"))
        removed = figure2.sweep_dead()
        assert "d" in removed
        engine.update_fanout([f])
        with pytest.raises(KeyError):
            engine.probability("d")


class TestPropagationEngine:
    def test_exact_on_tree(self, builder):
        # A tree: no reconvergence, propagation is exact.
        a, b, c, d = builder.inputs("a", "b", "c", "d")
        g1 = builder.and_(a, b, name="g1")
        g2 = builder.or_(c, d, name="g2")
        g3 = builder.xor_(g1, g2, name="g3")
        builder.output("o", g3)
        nl = builder.build()
        prop = PropagationProbability(nl)
        exact = ExactBddProbability(nl)
        for name in nl.gates:
            assert prop.probability(name) == pytest.approx(
                exact.probability(name)
            )

    def test_biased_inputs(self, builder):
        a, b = builder.inputs("a", "b")
        g = builder.and_(a, b, name="g")
        builder.output("o", g)
        nl = builder.build()
        prop = PropagationProbability(nl, input_probs={"a": 1.0, "b": 0.5})
        assert prop.probability("g") == pytest.approx(0.5)

    def test_reconvergence_bias_exists(self, builder):
        # f = a & !a should be 0; propagation thinks 0.25.
        a = builder.input("a")
        na = builder.not_(a, name="na")
        f = builder.and_(a, na, name="f")
        builder.output("o", f)
        nl = builder.build()
        prop = PropagationProbability(nl)
        exact = ExactBddProbability(nl)
        assert exact.probability("f") == 0.0
        assert prop.probability("f") == pytest.approx(0.25)

    def test_update_fanout(self, figure2):
        prop = PropagationProbability(figure2)
        f = figure2.gate("f")
        figure2.replace_fanin(f, 0, figure2.gate("e"))
        prop.update_fanout([f])
        reference = PropagationProbability(figure2)
        for name in figure2.gates:
            assert prop.probability(name) == pytest.approx(
                reference.probability(name)
            )


class TestExactEngine:
    def test_figure2(self, figure2):
        exact = ExactBddProbability(figure2)
        assert exact.probability("e") == pytest.approx(0.25)
        assert exact.probability("f") == pytest.approx(0.25)

    def test_matches_exhaustive_simulation(self, random_netlist):
        exact = ExactBddProbability(random_netlist)
        sim = SimulationProbability(random_netlist, exhaustive=True)
        for name in random_netlist.gates:
            assert exact.probability(name) == pytest.approx(
                sim.probability(name)
            ), name

    def test_biased(self, builder):
        a, b = builder.inputs("a", "b")
        g = builder.or_(a, b, name="g")
        builder.output("o", g)
        nl = builder.build()
        exact = ExactBddProbability(nl, input_probs={"a": 0.1, "b": 0.2})
        assert exact.probability("g") == pytest.approx(1 - 0.9 * 0.8)

    def test_update_is_refresh(self, figure2):
        exact = ExactBddProbability(figure2)
        f = figure2.gate("f")
        d = figure2.gate("d")
        pin = [i for i, g in enumerate(d.fanins) if g.name == "a"][0]
        # Change d to c XOR c = 0: p(d) and p(f) collapse to 0.
        figure2.replace_fanin(d, pin, figure2.gate("c"))
        changed = exact.update_fanout([d])
        assert "d" in changed and "f" in changed
        assert exact.probability("f") == 0.0
