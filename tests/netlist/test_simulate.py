"""Tests for bit-parallel simulation and observability masks."""

import numpy as np
import pytest

from repro.errors import NetlistError
from repro.kernels.words import popcount
from repro.netlist.simulate import (
    SimState,
    covering_patterns,
    evaluate_cell,
    exhaustive_patterns,
    random_patterns,
)
from repro.netlist.traverse import transitive_fanout


def bit(words, index):
    return (int(words[index // 64]) >> (index % 64)) & 1


class TestPatterns:
    def test_random_patterns_deterministic(self):
        a = random_patterns(["x"], 128, seed=5)
        b = random_patterns(["x"], 128, seed=5)
        assert np.array_equal(a["x"], b["x"])

    def test_random_patterns_seed_matters(self):
        a = random_patterns(["x"], 128, seed=5)
        b = random_patterns(["x"], 128, seed=6)
        assert not np.array_equal(a["x"], b["x"])

    def test_random_patterns_bad_count(self):
        with pytest.raises(NetlistError):
            random_patterns(["x"], 100)

    def test_biased_probability(self):
        patterns = random_patterns(["x"], 64 * 256, seed=1, input_probs={"x": 0.9})
        p = popcount(patterns["x"]) / (64 * 256)
        assert 0.85 < p < 0.95

    def test_exhaustive_covers_all(self):
        patterns = exhaustive_patterns(["a", "b"])
        seen = set()
        for i in range(64):
            seen.add((bit(patterns["a"], i), bit(patterns["b"], i)))
        assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_exhaustive_limit(self):
        with pytest.raises(NetlistError):
            exhaustive_patterns([f"x{i}" for i in range(21)])

    def test_covering_is_exhaustive_at_the_bound(self):
        names = [f"x{i}" for i in range(9)]
        patterns, exhaustive = covering_patterns(names, 512, seed=7)
        assert exhaustive
        reference = exhaustive_patterns(names)
        assert all(np.array_equal(patterns[n], reference[n]) for n in names)
        assert len(patterns["x0"]) == 8

    @pytest.mark.parametrize("num_inputs, num_patterns", [(9, 256), (10, 512)])
    def test_covering_is_random_above_the_bound(self, num_inputs, num_patterns):
        names = [f"x{i}" for i in range(num_inputs)]
        patterns, exhaustive = covering_patterns(names, num_patterns, seed=7)
        assert not exhaustive
        reference = random_patterns(names, num_patterns, seed=7)
        assert all(np.array_equal(patterns[n], reference[n]) for n in names)

    @pytest.mark.parametrize("num_inputs", range(6))
    def test_covering_pads_few_inputs_to_one_word(self, num_inputs):
        names = [f"x{i}" for i in range(num_inputs)]
        patterns, exhaustive = covering_patterns(names, 512, seed=7)
        assert exhaustive
        assert all(len(patterns[n]) == 1 for n in names)
        vectors = {
            tuple(bit(patterns[n], i) for n in names) for i in range(64)
        }
        assert len(vectors) == 2**num_inputs

    def test_covering_checks_the_pattern_count(self):
        with pytest.raises(NetlistError):
            covering_patterns(["x"], 100, seed=7)


class TestEvaluateCell:
    def test_xor_cell(self, lib):
        words_a = np.array([0b1100], dtype=np.uint64)
        words_b = np.array([0b1010], dtype=np.uint64)
        out = evaluate_cell(lib["xor2"], [words_a, words_b], 1)
        assert int(out[0]) & 0b1111 == 0b0110

    def test_aoi21_cell(self, lib):
        # O = !(a*b + c)
        cell = lib["aoi21"]
        a = np.array([0b1111 << 0], dtype=np.uint64)
        b = np.array([0b0011], dtype=np.uint64)
        c = np.array([0b0101], dtype=np.uint64)
        out = evaluate_cell(cell, [a, b, c], 1)
        for i in range(4):
            av, bv, cv = 1, (0b0011 >> i) & 1, (0b0101 >> i) & 1
            assert bit(out, i) == (1 - ((av & bv) | cv))

    def test_arity_mismatch(self, lib):
        with pytest.raises(NetlistError):
            evaluate_cell(lib["nand2"], [np.zeros(1, dtype=np.uint64)], 1)


class TestSimState:
    def test_matches_exhaustive_evaluation(self, figure2):
        sim = SimState(figure2, exhaustive_patterns(figure2.input_names))
        f = sim.words("f")
        for m in range(8):
            a, b, c = m & 1, (m >> 1) & 1, (m >> 2) & 1
            assert bit(f, m) == ((a ^ c) & b)

    def test_signal_probability(self, figure2):
        sim = SimState(figure2, exhaustive_patterns(figure2.input_names))
        assert sim.signal_probability("e") == 0.25
        assert sim.signal_probability("d") == 0.5

    def test_missing_patterns(self, figure2):
        with pytest.raises(NetlistError):
            SimState(figure2, {"a": np.zeros(1, dtype=np.uint64)})

    def test_incremental_resim_matches_full(self, random_netlist, lib):
        nl = random_netlist
        sim = SimState(nl, random_patterns(nl.input_names, 256, seed=3))
        # Rewire something, then compare incremental vs full resim.
        target = next(g for g in nl.logic_gates() if g.fanout_count())
        source = nl.gate(nl.input_names[0])
        sink, pin = target.fanouts[0]
        if not nl.would_create_cycle(source, sink):
            nl.replace_fanin(sink, pin, source)
            sim.resimulate_fanout([sink])
            reference = SimState(
                nl, random_patterns(nl.input_names, 256, seed=3)
            )
            for name in nl.gates:
                assert np.array_equal(sim.value(name), reference.value(name)), name

    def test_resim_returns_changed(self, figure2):
        sim = SimState(figure2, exhaustive_patterns(figure2.input_names))
        changed = sim.resimulate_fanout([figure2.gate("d")])
        assert changed == []  # nothing actually changed

    def test_resim_overlapping_roots_single_eval(self, figure2, monkeypatch):
        # A root inside another root's TFO must be evaluated exactly once
        # and appear at most once in the changed list.
        sim = SimState(figure2, exhaustive_patterns(figure2.input_names))
        d = figure2.gate("d")
        f = figure2.gate("f")  # f is in TFO(d)
        # Force a stale committed value: the state reads pattern ints.
        sim.values["d"] ^= sim.full

        # Count the per-gate evaluator resimulation calls.
        eval_counts: dict[str, int] = {}
        original = SimState._eval

        def counting_eval(self, gate, values):
            eval_counts[gate.name] = eval_counts.get(gate.name, 0) + 1
            return original(self, gate, values)

        monkeypatch.setattr(SimState, "_eval", counting_eval)
        changed = sim.resimulate_fanout([f, d])
        pending = {
            g.name
            for g in [f, d] + transitive_fanout(figure2, [f, d])
            if not g.is_input
        }
        assert eval_counts, "resimulation bypassed the counted evaluator"
        assert eval_counts == dict.fromkeys(pending, 1), eval_counts
        names = [g.name for g in changed]
        assert len(names) == len(set(names))
        assert names == ["d"]
        # Committed state is consistent with a full re-simulation.
        reference = SimState(figure2, exhaustive_patterns(figure2.input_names))
        for name in figure2.gates:
            assert sim.value(name) == reference.value(name), name

    def test_output_words(self, figure2):
        sim = SimState(figure2, exhaustive_patterns(figure2.input_names))
        outs = sim.output_words()
        assert set(outs) == {"f_out", "e_out"}

    def test_value_missing(self, figure2):
        sim = SimState(figure2, exhaustive_patterns(figure2.input_names))
        with pytest.raises(NetlistError):
            sim.value("nope")


class TestObservability:
    def test_stem_observability_fig2(self, figure2):
        sim = SimState(figure2, exhaustive_patterns(figure2.input_names))
        # d is observable at f only when b = 1.
        obs = sim.stem_observability(figure2.gate("d"))
        for m in range(8):
            b = (m >> 1) & 1
            assert (obs >> m) & 1 == b

    def test_po_driver_fully_observable(self, figure2):
        sim = SimState(figure2, exhaustive_patterns(figure2.input_names))
        obs = sim.stem_observability(figure2.gate("f"))
        for m in range(8):
            assert (obs >> m) & 1 == 1

    def test_branch_observability(self, figure2):
        sim = SimState(figure2, exhaustive_patterns(figure2.input_names))
        # Branch a -> d (xor pin 0): flipping it flips d, observable iff b=1.
        d = figure2.gate("d")
        pin = [i for i, f in enumerate(d.fanins) if f.name == "a"][0]
        obs = sim.branch_observability(d, pin)
        for m in range(8):
            assert (obs >> m) & 1 == (m >> 1) & 1

    def test_branch_obs_of_input_rejected(self, figure2):
        sim = SimState(figure2, exhaustive_patterns(figure2.input_names))
        with pytest.raises(NetlistError):
            sim.branch_observability(figure2.gate("a"), 0)


class TestPopcount:
    def test_popcount(self):
        words = np.array([0b1011, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        assert popcount(words) == 3 + 64

    def test_lut_fallback_matches(self):
        from repro.kernels.words import _popcount_lut

        rng = np.random.default_rng(11)
        words = rng.integers(0, 2**64, size=257, dtype=np.uint64)
        expected = sum(int(w).bit_count() for w in words)
        assert _popcount_lut(words) == expected
        assert popcount(words) == expected

    def test_lut_fallback_edge_words(self):
        from repro.kernels.words import _popcount_lut

        words = np.array([0, 0xFFFFFFFFFFFFFFFF, 1 << 63, 0xF0F0], dtype=np.uint64)
        assert _popcount_lut(words) == 0 + 64 + 1 + 8
        assert _popcount_lut(np.zeros(0, dtype=np.uint64)) == 0
