"""Tests for the glitch-aware power analysis."""

import pytest

from repro.fuzz.generator import GeneratorConfig, random_mapped_netlist
from repro.netlist.simulate import random_patterns
from repro.netlist.traverse import topological_order
from repro.power.glitch import analyze_glitches
from repro.timing.analysis import gate_delay


class TestGlitchAnalysis:
    def test_timed_at_least_zero_delay(self, figure2):
        report = analyze_glitches(figure2, num_pairs=128, seed=1)
        assert report.timed_power >= report.zero_delay_power - 1e-9
        for name, density in report.transition_density.items():
            assert density >= report.zero_delay_activity[name] - 1e-12

    def test_parity_of_transitions(self, figure2):
        # A net's transition count and its zero-delay change indicator have
        # the same parity (it settles at the zero-delay final value).
        report = analyze_glitches(figure2, num_pairs=64, seed=2)
        for name in report.transition_density:
            t = report.transition_density[name] * report.num_pairs
            e = report.zero_delay_activity[name] * report.num_pairs
            assert (round(t) - round(e)) % 2 == 0, name

    def test_single_gate_has_no_glitches(self, builder):
        a, b = builder.inputs("a", "b")
        g = builder.and_(a, b, name="g")
        builder.output("o", g)
        nl = builder.build()
        report = analyze_glitches(nl, num_pairs=128, seed=3)
        # One gate, single evaluation: T == E exactly.
        assert report.glitch_power == pytest.approx(0.0, abs=1e-12)

    def test_unbalanced_xor_glitches(self, builder):
        # f = a XOR buffer-chain(a): function is constant 0, zero-delay
        # power ~0, but real transitions occur while the chain settles.
        a = builder.input("a")
        delayed = a
        for i in range(4):
            delayed = builder.not_(delayed, name=f"inv{i}")
        f = builder.xor_(a, delayed, name="f")
        builder.output("o", f)
        nl = builder.build()
        report = analyze_glitches(nl, num_pairs=128, seed=4)
        # f's zero-delay activity is 0 (constant function)...
        assert report.zero_delay_activity["f"] == 0.0
        # ...but the timed simulation sees pulses whenever `a` toggles.
        assert report.transition_density["f"] > 0.2
        assert report.glitch_fraction > 0.0
        assert ("f", report.transition_density["f"]) in report.worst_glitchers(3)

    def test_glitch_fraction_plausible_on_benchmark(self, lib):
        from repro.bench.suite import build_benchmark

        netlist = build_benchmark("misex1", lib)
        report = analyze_glitches(netlist, num_pairs=96, seed=5)
        # Real multi-level circuits glitch, but not absurdly: the paper
        # quotes ~20%; accept a generous band.
        assert 0.0 <= report.glitch_fraction < 0.6

    def test_deterministic(self, figure2):
        a = analyze_glitches(figure2, num_pairs=64, seed=6)
        b = analyze_glitches(figure2, num_pairs=64, seed=6)
        assert a.timed_power == b.timed_power

    def test_biased_inputs(self, figure2):
        report = analyze_glitches(
            figure2, num_pairs=64, seed=7, input_probs={"a": 0.9}
        )
        assert report.timed_power >= 0.0

    @pytest.mark.parametrize("num_pairs", [0, -5])
    def test_pair_count_below_one_is_rejected(self, figure2, num_pairs):
        with pytest.raises(ValueError, match="num_pairs must be at least 1"):
            analyze_glitches(figure2, num_pairs=num_pairs)


def _settled(order, inputs):
    values = {}
    for gate in order:
        if gate.is_input:
            values[gate.name] = inputs[gate.name]
        else:
            values[gate.name] = gate.cell.evaluate(
                [values[f.name] for f in gate.fanins]
            )
    return values


def _sample(wave, time):
    """Value of a (initial, events) waveform at ``time`` (events ≤ time)."""
    initial, events = wave
    value = initial
    for t, v in events:
        if t > time:
            break
        value = v
    return value


def _waveform_transitions(netlist, num_pairs, seed, input_probs=None):
    """Brute-force transition counts via per-gate waveform algebra.

    Independent re-implementation of the timed model without an event
    queue: each gate's full output waveform is computed in topological
    order from its fanins' completed waveforms.  The output can only
    change at ``t_f + d`` for a fanin change at ``t_f``, taking the value
    ``f(fanins sampled at the evaluation time)`` — the same transport /
    last-write-wins semantics the event-driven simulator implements with
    a heap.  Exponentially simpler to audit; used as ground truth.
    """
    order = topological_order(netlist)
    delays = {g.name: gate_delay(netlist, g) for g in order}
    rounded = max(64, ((num_pairs + 63) // 64) * 64)
    before = random_patterns(netlist.input_names, rounded, seed, input_probs)
    after = random_patterns(
        netlist.input_names, rounded, seed + 1, input_probs
    )

    def vector(patterns, index):
        word, bit = divmod(index, 64)
        return {
            name: (int(patterns[name][word]) >> bit) & 1
            for name in netlist.input_names
        }

    counts = {g.name: 0 for g in order}
    for index in range(num_pairs):
        v0 = vector(before, index)
        v1 = vector(after, index)
        settled0 = _settled(order, v0)
        settled1 = _settled(order, v1)
        waves = {}
        for gate in order:
            initial = settled0[gate.name]
            events = []
            if gate.is_input:
                if v0[gate.name] != v1[gate.name]:
                    events.append((0.0, v1[gate.name]))
            else:
                d = delays[gate.name]
                times = sorted(
                    {
                        t + d
                        for f in gate.fanins
                        for t, _v in waves[f.name][1]
                    }
                )
                value = initial
                for t in times:
                    new = gate.cell.evaluate(
                        [_sample(waves[f.name], t) for f in gate.fanins]
                    )
                    if new != value:
                        events.append((t, new))
                        value = new
            waves[gate.name] = (initial, events)
            counts[gate.name] += len(events)
            final = events[-1][1] if events else initial
            assert final == settled1[gate.name], gate.name
    return {name: count / num_pairs for name, count in counts.items()}


class TestBruteForceCrossCheck:
    """analyze_glitches vs. an independent waveform simulator."""

    def test_figure2_densities_match_exactly(self, figure2):
        report = analyze_glitches(figure2, num_pairs=128, seed=11)
        expected = _waveform_transitions(figure2, num_pairs=128, seed=11)
        assert report.transition_density == expected

    def test_hazard_circuit_matches_exactly(self, builder):
        a = builder.input("a")
        delayed = a
        for i in range(4):
            delayed = builder.not_(delayed, name=f"inv{i}")
        f = builder.xor_(a, delayed, name="f")
        builder.output("o", f)
        nl = builder.build()
        report = analyze_glitches(nl, num_pairs=128, seed=12)
        expected = _waveform_transitions(nl, num_pairs=128, seed=12)
        assert report.transition_density == expected
        # Sanity: the hazard node really glitches in both simulators.
        assert expected["f"] > report.zero_delay_activity["f"]

    @pytest.mark.parametrize(
        "shape, seed", [("random", 3), ("reconvergent", 9), ("high_fanout", 5)]
    )
    def test_generated_circuits_match_exactly(self, lib, shape, seed):
        netlist = random_mapped_netlist(
            GeneratorConfig(
                seed=seed, shape=shape, min_inputs=5, max_inputs=8,
                min_gates=12, max_gates=24,
            ),
            lib,
        )
        report = analyze_glitches(netlist, num_pairs=64, seed=seed)
        expected = _waveform_transitions(netlist, num_pairs=64, seed=seed)
        assert report.transition_density == expected

    def test_biased_inputs_match_exactly(self, figure2):
        probs = {"a": 0.9, "b": 0.2}
        report = analyze_glitches(
            figure2, num_pairs=64, seed=13, input_probs=probs
        )
        expected = _waveform_transitions(
            figure2, num_pairs=64, seed=13, input_probs=probs
        )
        assert report.transition_density == expected
