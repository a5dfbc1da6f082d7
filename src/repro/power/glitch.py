"""Glitch-aware power analysis by event-driven timed simulation.

The paper's power model is zero-delay (§2): it counts at most one transition
per signal per cycle and explicitly ignores glitches, citing that "glitches
typically contribute about 20% to the total power consumption".  This module
quantifies that statement for any netlist in this system: it simulates input
*vector pairs* through the linear-delay timing model (pure transport delay,
last-write-wins event semantics) and counts **every** transition on every
stem, hazards included.

The result is a per-signal *transition density* ``T(s)`` (average number of
transitions per cycle; may exceed 1) and the corresponding power
``Σ C(s)·T(s)``, directly comparable with the zero-delay ``Σ C·E``:

- ``T(s) >= E(s)`` always — a net ends at its zero-delay final value, so it
  makes at least one transition whenever the zero-delay model counts one,
- ``T(s) = E(s)`` exactly on glitch-free nets (e.g. when all input paths
  are balanced), the surplus is glitch power.

This is an analysis tool, not part of the optimization loop (the paper's
argument for the zero-delay model — pre-layout path delays are unreliable —
applies here too).
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional

from repro.netlist.netlist import Gate, Netlist
from repro.netlist.simulate import random_patterns
from repro.netlist.traverse import topological_order
from repro.timing.analysis import gate_delay


@dataclass
class GlitchReport:
    """Zero-delay vs. timed power for one netlist and workload."""

    zero_delay_power: float  # Σ C·E over the sampled vector pairs
    timed_power: float  # Σ C·T, glitches included
    transition_density: dict  # name -> T(s)
    zero_delay_activity: dict  # name -> E(s) over the same sample
    num_pairs: int

    @property
    def glitch_power(self) -> float:
        return self.timed_power - self.zero_delay_power

    @property
    def glitch_fraction(self) -> float:
        """Share of the timed power due to glitches (paper: ~20 %)."""
        if self.timed_power == 0:
            return 0.0
        return self.glitch_power / self.timed_power

    def worst_glitchers(self, k: int = 10) -> list[tuple[str, float]]:
        """Signals with the largest glitch surplus ``T - E``."""
        surplus = [
            (name, self.transition_density[name] - self.zero_delay_activity[name])
            for name in self.transition_density
        ]
        surplus.sort(key=lambda item: -item[1])
        return surplus[:k]


def _steady_state(
    netlist: Netlist, order: list[Gate], inputs: Mapping[str, int]
) -> dict[str, int]:
    values: dict[str, int] = {}
    for gate in order:
        if gate.is_input:
            values[gate.name] = inputs[gate.name]
        else:
            values[gate.name] = gate.cell.evaluate(
                [values[f.name] for f in gate.fanins]
            )
    return values


def _timed_transitions(
    netlist: Netlist,
    order: list[Gate],
    delays: dict[str, float],
    state: dict[str, int],
    new_inputs: Mapping[str, int],
    counts: dict[str, int],
) -> dict[str, int]:
    """Propagate one input change event-wise; returns the settled state.

    ``state`` is the settled state before the new vector; ``counts``
    accumulates transitions per stem (inputs included).
    """
    # (time, sequence, gate) — sequence breaks ties deterministically.
    queue: list[tuple[float, int, Gate]] = []
    sequence = 0
    current = dict(state)

    def schedule_sinks(gate: Gate, at: float) -> None:
        nonlocal sequence
        for sink, _pin in gate.fanouts:
            heapq.heappush(
                queue, (at + delays[sink.name], sequence, sink)
            )
            sequence += 1

    for name, value in new_inputs.items():
        if current[name] != value:
            current[name] = value
            counts[name] = counts.get(name, 0) + 1
            schedule_sinks(netlist.gates[name], 0.0)

    while queue:
        time, _seq, gate = heapq.heappop(queue)
        new_value = gate.cell.evaluate(
            [current[f.name] for f in gate.fanins]
        )
        if new_value == current[gate.name]:
            continue
        current[gate.name] = new_value
        counts[gate.name] = counts.get(gate.name, 0) + 1
        schedule_sinks(gate, time)
    return current


def analyze_glitches(
    netlist: Netlist,
    num_pairs: int = 256,
    seed: int = 2024,
    input_probs: Optional[Mapping[str, float]] = None,
) -> GlitchReport:
    """Measure transition densities over random consecutive vector pairs."""
    if num_pairs < 1:
        raise ValueError(f"num_pairs must be at least 1, got {num_pairs}")
    order = topological_order(netlist)
    delays = {g.name: gate_delay(netlist, g) for g in order}
    # Two independent pattern sets = the "before" and "after" vectors.
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

    counts: dict[str, int] = {g.name: 0 for g in order}
    zero_delay_changes: dict[str, int] = {g.name: 0 for g in order}
    for index in range(num_pairs):
        v0 = vector(before, index)
        v1 = vector(after, index)
        settled0 = _steady_state(netlist, order, v0)
        settled1 = _steady_state(netlist, order, v1)
        for name in settled0:
            if settled0[name] != settled1[name]:
                zero_delay_changes[name] += 1
        final = _timed_transitions(
            netlist, order, delays, settled0, v1, counts
        )
        # Transport-delay simulation must settle to the zero-delay state.
        assert final == settled1

    density = {name: counts[name] / num_pairs for name in counts}
    activity = {
        name: zero_delay_changes[name] / num_pairs
        for name in zero_delay_changes
    }
    timed_power = 0.0
    zero_power = 0.0
    for gate in order:
        load = netlist.load_of(gate)
        timed_power += load * density[gate.name]
        zero_power += load * activity[gate.name]
    return GlitchReport(
        zero_delay_power=zero_power,
        timed_power=timed_power,
        transition_density=density,
        zero_delay_activity=activity,
        num_pairs=num_pairs,
    )
