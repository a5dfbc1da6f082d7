"""Temporal-correlation-aware activity estimation.

The paper's base model assumes temporal independence of the primary inputs
(``E(s) = 2·p·(1-p)``) but notes that "other estimation methods considering
temporal and spatial correlations could also be used" (§2).  This module
provides such an engine: every primary input is a stationary lag-1 Markov
process described by

- ``p1`` — the stationary probability of being 1, and
- ``activity`` — the toggle probability ``P(s_t ≠ s_{t+1})``,

from which the transition rates follow (stationarity forces
``p1·P(1→0) = (1-p1)·P(0→1) = activity/2``).  The engine simulates the
circuit on *pairs* of consecutive pattern sets and measures each internal
signal's activity directly as the fraction of toggling pattern pairs —
spatial correlation between signals is captured exactly (same sample), and
input temporal correlation propagates through the logic.

With ``activity = 2·p1·(1-p1)`` for every input this reproduces the
temporal-independence model (up to sampling noise); lower activities model
slowly-changing control inputs, higher ones fast toggling data.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import NetlistError
from repro.netlist.netlist import Netlist
from repro.netlist.simulate import (
    DEFAULT_NUM_PATTERNS,
    SimState,
    random_patterns,
)
from repro.power.probability import SimulationProbability


@dataclass(frozen=True)
class TemporalSpec:
    """Lag-1 Markov description of one primary input."""

    p1: float = 0.5
    activity: float = 0.5  # P(toggle between consecutive cycles)

    def __post_init__(self):
        if not 0.0 <= self.p1 <= 1.0:
            raise NetlistError(f"p1 must be a probability, got {self.p1}")
        limit = 2.0 * min(self.p1, 1.0 - self.p1)
        if not 0.0 <= self.activity <= limit + 1e-12:
            raise NetlistError(
                f"activity {self.activity} infeasible for p1={self.p1} "
                f"(max {limit})"
            )

    @property
    def p_fall(self) -> float:
        """P(1 -> 0)."""
        if self.p1 == 0.0:
            return 0.0
        return min(1.0, self.activity / (2.0 * self.p1))

    @property
    def p_rise(self) -> float:
        """P(0 -> 1)."""
        if self.p1 == 1.0:
            return 0.0
        return min(1.0, self.activity / (2.0 * (1.0 - self.p1)))


def _markov_step(
    words: np.ndarray, spec: TemporalSpec, rng: np.random.Generator
) -> np.ndarray:
    """Next-cycle pattern word for one input under its Markov spec."""
    num_bits = len(words) * 64
    current = np.unpackbits(
        words.view(np.uint8), bitorder="little"
    ).astype(bool)[:num_bits]
    uniform = rng.random(num_bits)
    toggle = np.where(current, uniform < spec.p_fall, uniform < spec.p_rise)
    nxt = current ^ toggle
    return np.packbits(nxt, bitorder="little").view(np.uint64).copy()


class TemporalSimulationProbability(SimulationProbability):
    """Pair-simulation engine measuring activities directly.

    Exposes the regular :class:`SimulationProbability` interface (``sim``,
    ``probability``) plus :meth:`activity`; the power estimator prefers the
    measured activity over the ``2p(1-p)`` formula when it is available.
    """

    def __init__(
        self,
        netlist: Netlist,
        num_patterns: int = DEFAULT_NUM_PATTERNS,
        seed: int = 2024,
        input_specs: Optional[Mapping[str, TemporalSpec]] = None,
        default_spec: TemporalSpec = TemporalSpec(),
    ):
        self.specs = {
            name: (input_specs or {}).get(name, default_spec)
            for name in netlist.input_names
        }
        patterns_t = random_patterns(
            netlist.input_names,
            num_patterns,
            seed,
            {name: spec.p1 for name, spec in self.specs.items()},
        )
        rng = np.random.default_rng(seed + 1)
        patterns_next = {
            name: _markov_step(patterns_t[name], self.specs[name], rng)
            for name in netlist.input_names
        }
        # The base class owns `sim` (cycle t); `sim_next` holds cycle t+1.
        self.sim_next = SimState(netlist, patterns_next)
        super().__init__(netlist, patterns=patterns_t)
        self._acts: dict[str, float] = {}
        self._measure(netlist.gates)

    # ------------------------------------------------------------------
    def activity(self, name: str) -> float:
        """Measured toggle probability ``P(s_t != s_{t+1})``."""
        return self._acts[name]

    def _measure(self, names: Iterable[str]) -> None:
        total = self.sim.num_patterns
        values, values_next = self.sim.values, self.sim_next.values
        for name in names:
            toggles = (values[name] ^ values_next[name]).bit_count()
            self._acts[name] = toggles / total

    def refresh(self) -> None:
        # Base-class refresh resimulates cycle t and rebuilds probabilities.
        super().refresh()
        self.sim_next.resimulate_all()
        self._acts = {}
        self._measure(self.netlist.gates)

    def update_fanout(self, roots) -> list[str]:
        # Every gate whose cycle-t or cycle-t+1 words changed.
        roots = list(roots)
        changed = set(super().update_fanout(roots))
        changed_next = self.sim_next.resimulate_fanout(
            [g for g in roots if g.name in self.netlist.gates]
        )
        changed.update(g.name for g in changed_next)
        live = set(self.netlist.gates)
        for name in [n for n in self._acts if n not in live]:
            del self._acts[name]
        self._measure(
            [n for n in changed if n in live] + [n for n in live if n not in self._acts]
        )
        return sorted(changed & live)
