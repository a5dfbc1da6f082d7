"""The analysis facade consumers hold: facts cached per structural state.

An :class:`AnalysisSuite` binds one netlist to a packed simulation state
and a SAT oracle, and exposes one product — :attr:`facts`, the current
:class:`~repro.analysis.facts.NetlistFacts` — under the same
structural-state protocol the triage checker and packed views use: the
identity of ``topological_order(netlist)`` names the state, so facts
are recomputed from scratch on the first read after the structure
changed, with a fresh oracle: a proof against the old structure says
nothing about the new one.

Every fact takes one path: simulation nominates, SAT proves
(ALGORITHMS.md §18).

- **Constants.**  A gate whose signature is all-0 or all-1 (tie cells
  included) is nominated; ``prove_constant`` promotes it.
- **Unobservables.**  A gate with no structural path to a primary
  output is dead (``proof="structural"``).  Any other gate whose stem
  observability mask is zero on every pattern is nominated;
  ``prove_unobservable``, the flip miter, promotes it, unless the gate
  drives no output and feeds only one sink already proven blocked,
  which makes it blocked by construction.
- **Phases.**  One topological walk over BUF/INV cells; sound by
  construction, so no oracle is involved.
- **Equivalences.**  :func:`~repro.analysis.equivalence.
  find_equivalences` buckets signatures and proves each merge.

A candidate the oracle refutes or cannot decide within its conflict
budget is dropped: an exhausted budget loses facts, never invents them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.netlist.netlist import Gate, Netlist
from repro.netlist.observability import ObservabilityMaps
from repro.netlist.simulate import SimState, random_patterns
from repro.netlist.traverse import po_reachable, topological_order

from repro.analysis.equivalence import find_equivalences
from repro.analysis.facts import (
    ConstantFact,
    NetlistFacts,
    PhaseFact,
    UnobservableFact,
)
from repro.analysis.oracle import FactOracle


class AnalysisSuite:
    """Whole-netlist static facts, recomputed per structural state."""

    def __init__(
        self, netlist: Netlist, num_patterns: int = 256, seed: int = 11
    ):
        self.netlist = netlist
        self.num_patterns = num_patterns
        self.seed = seed
        self.oracle: Optional[FactOracle] = None
        #: refresh tallies: full recomputations.
        self.counters: Dict[str, int] = {"full": 0}
        self._sim: Optional[SimState] = None
        self._state_key: Optional[list] = None
        self._facts: Optional[NetlistFacts] = None

    # ------------------------------------------------------------------
    @property
    def facts(self) -> NetlistFacts:
        return self.refresh()

    def refresh(self, force: bool = False) -> NetlistFacts:
        key = topological_order(self.netlist)
        if not force and self._facts is not None and key is self._state_key:
            return self._facts
        netlist = self.netlist
        self.counters["full"] += 1
        sim = self._sim = SimState(
            netlist,
            random_patterns(netlist.input_names, self.num_patterns, self.seed),
        )
        oracle = self.oracle = FactOracle(netlist)
        facts = NetlistFacts(netlist_name=netlist.name)

        for gate in key:
            word = sim.values[gate.name]
            if gate.is_input or word not in (0, sim.full):
                continue
            value = int(word != 0)
            if oracle.prove_constant(gate.name, value) is True:
                facts.constants.append(ConstantFact(gate.name, value, "sat"))

        reachable = po_reachable(netlist)
        maps = ObservabilityMaps(sim)
        blocked = _blocked_gates(key, reachable, maps, oracle)
        for name in sorted(netlist.gates):
            if name not in reachable:
                facts.unobservables.append(
                    UnobservableFact(name, "dead", "structural")
                )
            elif name in blocked:
                facts.unobservables.append(
                    UnobservableFact(name, "blocked", "sat")
                )

        facts.phases = _phase_facts(key)
        facts.equivalences = find_equivalences(netlist, sim, oracle)
        self._facts = facts
        self._state_key = key
        return facts


def _blocked_gates(
    order: Sequence[Gate],
    reachable: Set[str],
    maps: ObservabilityMaps,
    oracle: FactOracle,
) -> Set[str]:
    """Names of the reachable nominees proven unobservable.

    A nominee (stem mask zero on every pattern) is walked in reverse
    topological order, so its sinks are decided first.  A gate that
    drives no output and whose fanout edges all enter one sink already
    proven blocked is blocked too: flipping it leaves that sink as it
    is or flips it, and neither reaches an output.  Every other nominee
    takes the flip miter.
    """
    stems = maps.stem
    blocked: Set[str] = set()
    for gate in reversed(order):
        name = gate.name
        if name not in reachable or stems[name] != 0:
            continue
        sinks = {sink.name for sink, _pin in gate.fanouts}
        if not gate.po_names and len(sinks) == 1 and sinks <= blocked:
            blocked.add(name)
        elif oracle.prove_unobservable(name) is True:
            blocked.add(name)
    return blocked


def _phase_facts(order: Sequence[Gate]) -> List[PhaseFact]:
    """``(root, parity, depth)`` of every BUF/INV cell, in one walk.

    The root is the nearest ancestor that is not a buffer or inverter;
    a BUF keeps its fanin's parity and an INV flips it, so each fact
    holds by construction.
    """
    chains: Dict[str, tuple] = {}
    for gate in order:
        cell = gate.cell
        if cell is None or not (cell.is_buffer() or cell.is_inverter()):
            continue
        fanin = gate.fanins[0].name
        root, parity, depth = chains.get(fanin, (fanin, 0, 0))
        chains[gate.name] = (root, parity ^ cell.is_inverter(), depth + 1)
    return [PhaseFact(name, *chains[name]) for name in sorted(chains)]
