"""Signal-probability engines.

All engines expose the same minimal protocol:

- ``probability(name) -> float`` — P(signal = 1),
- ``refresh()`` — recompute everything from the current netlist state,
- ``update_fanout(roots) -> list[str]`` — incrementally recompute after the
  netlist changed at ``roots``; returns the names whose probability changed
  (the simulation engines: whose value words changed, a superset).

The simulation engine is the optimizer's default: probabilities come from a
seeded bit-parallel pattern set, so incremental updates are exact restatements
of the same sample (no estimator drift between moves).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Optional

from repro.errors import NetlistError
from repro.netlist.netlist import Gate, Netlist
from repro.netlist.simulate import (
    DEFAULT_NUM_PATTERNS,
    SimState,
    exhaustive_patterns,
    random_patterns,
)
from repro.netlist.traverse import topological_order, transitive_fanout


class ProbabilityEngine:
    """Interface for signal-probability providers."""

    netlist: Netlist

    def probability(self, name: str) -> float:
        raise NotImplementedError

    def refresh(self) -> None:
        raise NotImplementedError

    def update_fanout(self, roots: Iterable[Gate]) -> list[str]:
        """Recompute after an edit at ``roots``; names with changed p."""
        raise NotImplementedError


class SimulationProbability(ProbabilityEngine):
    """Monte-Carlo probabilities from deterministic bit-parallel patterns.

    With ``exhaustive=True`` (feasible up to 20 inputs) the sample is the
    full input space and probabilities are exact for equiprobable inputs.
    """

    def __init__(
        self,
        netlist: Netlist,
        num_patterns: int = DEFAULT_NUM_PATTERNS,
        seed: int = 2024,
        input_probs: Optional[Mapping[str, float]] = None,
        exhaustive: bool = False,
        patterns: Optional[Mapping] = None,
    ):
        self.netlist = netlist
        if patterns is None:
            if exhaustive:
                if input_probs:
                    raise NetlistError(
                        "exhaustive simulation assumes equiprobable inputs"
                    )
                patterns = exhaustive_patterns(netlist.input_names)
            else:
                patterns = random_patterns(
                    netlist.input_names, num_patterns, seed, input_probs
                )
        self.sim = SimState(netlist, patterns)
        self._read_probabilities()

    def probability(self, name: str) -> float:
        return self._probs[name]

    def _read_probabilities(self) -> None:
        self._probs: dict[str, float] = {
            gate.name: self.sim.signal_probability(gate.name)
            for gate in self.netlist.gates.values()
        }

    def refresh(self) -> None:
        self.sim.resimulate_all()
        self._read_probabilities()

    def update_fanout(self, roots: Iterable[Gate]) -> list[str]:
        """Re-simulate the TFO of ``roots``; names whose words changed.

        A word can change while its popcount, and so the probability,
        stays put; such a gate is reported too, and so are gates new to
        the netlist.
        """
        changed: list[str] = []
        for gate in self.sim.resimulate_fanout(roots):
            self._probs[gate.name] = self.sim.signal_probability(gate.name)
            changed.append(gate.name)
        # Drop entries for gates that disappeared, pick up new gates.
        live = set(self.netlist.gates)
        for name in [n for n in self._probs if n not in live]:
            del self._probs[name]
        for name in live - set(self._probs):
            self._probs[name] = self.sim.signal_probability(name)
            changed.append(name)
        return changed


class PropagationProbability(ProbabilityEngine):
    """Gate-local propagation assuming spatially independent fanins.

    Exact on trees, biased on reconvergent circuits; provided for the
    ablation study of estimator choice and as a fast fallback.
    """

    def __init__(
        self,
        netlist: Netlist,
        input_probs: Optional[Mapping[str, float]] = None,
    ):
        self.netlist = netlist
        self.input_probs = dict(input_probs or {})
        self._probs: dict[str, float] = {}
        self.refresh()

    def _gate_probability(self, gate: Gate) -> float:
        fanin_probs = [self._probs[f.name] for f in gate.fanins]
        return gate.cell.function.onset_probability(fanin_probs)

    def probability(self, name: str) -> float:
        return self._probs[name]

    def refresh(self) -> None:
        self._probs = {}
        for gate in topological_order(self.netlist):
            if gate.is_input:
                self._probs[gate.name] = self.input_probs.get(gate.name, 0.5)
            else:
                self._probs[gate.name] = self._gate_probability(gate)

    def update_fanout(self, roots: Iterable[Gate]) -> list[str]:
        changed: list[str] = []
        root_list = [g for g in roots if not g.is_input]
        for gate in root_list:
            p = self._gate_probability(gate)
            if self._probs.get(gate.name) != p:
                self._probs[gate.name] = p
                changed.append(gate.name)
        for gate in transitive_fanout(self.netlist, root_list):
            if gate.is_input:
                continue
            p = self._gate_probability(gate)
            if self._probs.get(gate.name) != p:
                self._probs[gate.name] = p
                changed.append(gate.name)
        live = set(self.netlist.gates)
        for name in [n for n in self._probs if n not in live]:
            del self._probs[name]
        return changed


class ExactBddProbability(ProbabilityEngine):
    """Exact probabilities through global ROBDDs.

    Builds one BDD per stem over the primary inputs.  Intended for small and
    medium circuits (node limit guards against blow-up); incremental updates
    simply rebuild the manager — exactness, not speed, is the point here.
    """

    def __init__(
        self,
        netlist: Netlist,
        input_probs: Optional[Mapping[str, float]] = None,
        node_limit: int = 2_000_000,
    ):
        self.netlist = netlist
        self.input_probs = dict(input_probs or {})
        self.node_limit = node_limit
        self._probs: dict[str, float] = {}
        self.refresh()

    def probability(self, name: str) -> float:
        return self._probs[name]

    def refresh(self) -> None:
        from repro.netlist.bdds import netlist_bdds

        var_probs = [
            self.input_probs.get(name, 0.5) for name in self.netlist.input_names
        ]
        manager, nodes = netlist_bdds(
            self.netlist, node_limit=self.node_limit
        )
        self._probs = {
            name: manager.probability(node, var_probs)
            for name, node in nodes.items()
        }

    def update_fanout(self, roots: Iterable[Gate]) -> list[str]:
        old = dict(self._probs)
        self.refresh()
        return [
            name
            for name, p in self._probs.items()
            if old.get(name) != p
        ]
