"""The analysis facade consumers hold: facts cached per structural state.

An :class:`AnalysisSuite` binds one netlist to the dataflow engine, a
shared packed simulation state (the signature seed), and the SAT
oracle, and exposes one product — :attr:`facts`, the current
:class:`~repro.analysis.facts.NetlistFacts` — under the same
structural-state protocol the triage checker and packed views use: the
identity of ``topological_order(netlist)`` names the state, so facts
are recomputed from scratch on the first read after the structure
changed, with a fresh oracle: a proof against the old structure says
nothing about the new one.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.netlist.netlist import Netlist
from repro.netlist.simulate import SimState, random_patterns
from repro.netlist.traverse import topological_order

from repro.analysis.constants import ConstantAnalysis
from repro.analysis.engine import DataflowEngine
from repro.analysis.equivalence import find_equivalences
from repro.analysis.facts import (
    ConstantFact,
    NetlistFacts,
    PhaseFact,
    UnobservableFact,
)
from repro.analysis.observability import ObservabilityAnalysis, po_reachable
from repro.analysis.oracle import FactOracle
from repro.analysis.phase import PhaseAnalysis


class AnalysisSuite:
    """Whole-netlist static facts, recomputed per structural state."""

    def __init__(
        self,
        netlist: Netlist,
        num_patterns: int = 256,
        seed: int = 11,
        conflict_limit: int = 50_000,
        use_sat: bool = True,
    ):
        self.netlist = netlist
        self.num_patterns = num_patterns
        self.seed = seed
        self.use_sat = use_sat
        self.conflict_limit = conflict_limit
        self.engine = DataflowEngine(netlist)
        self.oracle: Optional[FactOracle] = None
        #: refresh tallies: full recomputations.
        self.counters: Dict[str, int] = {"full": 0}
        self._constant_analysis = ConstantAnalysis()
        self._phase_analysis = PhaseAnalysis()
        self._sim: Optional[SimState] = None
        self._state_key: Optional[list] = None
        self._facts: Optional[NetlistFacts] = None
        self._const_values: Dict[str, object] = {}
        self._phase_values: Dict[str, object] = {}
        self._obs_values: Dict[str, object] = {}

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
        self._sim = SimState(
            netlist,
            random_patterns(netlist.input_names, self.num_patterns, self.seed),
        )
        self._const_values = self.engine.run(self._constant_analysis)
        self._phase_values = self.engine.run(self._phase_analysis)
        self.oracle = (
            FactOracle(netlist, self.conflict_limit) if self.use_sat else None
        )

        const_map, constants = self._constant_facts()
        self._obs_values = self.engine.run(ObservabilityAnalysis(const_map))

        facts = NetlistFacts(netlist_name=netlist.name)
        facts.constants = constants
        facts.unobservables = self._unobservable_facts()
        facts.phases = self._phase_facts()
        facts.equivalences = find_equivalences(
            netlist, self._sim, self.oracle
        )
        self._facts = facts
        self._state_key = key
        return facts

    # ------------------------------------------------------------------
    # Fact assembly
    # ------------------------------------------------------------------
    def _constant_facts(self):
        const_map: Dict[str, int] = {}
        constants: list = []
        sim = self._sim
        oracle = self.oracle
        for gate in topological_order(self.netlist):
            name = gate.name
            value = self._const_values.get(name)
            if value in (0, 1):
                const_map[name] = int(value)  # type: ignore[arg-type]
                constants.append(ConstantFact(name, int(value), "dataflow"))
                continue
            if oracle is None or gate.is_input:
                continue
            # Second tier: a flat simulation signature nominates the
            # gate; only an UNSAT answer promotes it to a fact.
            word = sim.values.get(name) if sim is not None else None
            if word is None:
                continue
            if word == 0:
                candidate = 0
            elif word == sim.full:
                candidate = 1
            else:
                continue
            if oracle.prove_constant(name, candidate) is True:
                const_map[name] = candidate
                constants.append(ConstantFact(name, candidate, "sat"))
        return const_map, constants

    def _unobservable_facts(self):
        netlist = self.netlist
        reachable = po_reachable(netlist)
        oracle = self.oracle
        unobservables = []
        for name in sorted(netlist.gates):
            if name not in reachable:
                unobservables.append(
                    UnobservableFact(name, "dead", "structural")
                )
                continue
            if self._obs_values.get(name) is not False or oracle is None:
                continue
            if oracle.prove_unobservable(name) is True:
                unobservables.append(UnobservableFact(name, "blocked", "sat"))
        return unobservables

    def _phase_facts(self):
        phases = []
        for name in sorted(self.netlist.gates):
            value = self._phase_values.get(name)
            if isinstance(value, tuple) and value[2] >= 1:
                root, parity, depth = value
                phases.append(PhaseFact(name, root, parity, depth))
        return phases
