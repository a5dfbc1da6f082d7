"""Cut-based technology mapping with dual-phase dynamic programming.

The mapper covers an AND2/INV subject graph with library cells:

1. **Cut enumeration** — k-feasible cuts per node (k = largest library cell
   arity, capped), pruned to a per-node budget with dominated cuts removed.
2. **Matching** — each cut's local function (an integer truth table over
   its leaves) is one lookup in the library's permutation index
   (:meth:`~repro.library.cell.Library.match_index`).
3. **Covering** — dynamic programming over both polarities of every node
   (``best[n][phase]``), with inverter bridging between phases, so purely
   NAND/NOR libraries map cleanly.  Costs are *area* (cell area) or
   *power* (switched capacitance: pin loads weighted by leaf activities —
   the low-power mapping objective of Tsui et al. [10]).
4. **Construction** — the chosen cover is instantiated as a mapped
   :class:`~repro.netlist.Netlist`, memoised so shared logic stays shared.

DAG inputs are mapped with the classic tree-DP approximation (fanout cost
is not de-duplicated during DP), which is how SIS-era mappers behaved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import MappingError
from repro.library.cell import Cell, Library
from repro.logic.truthtable import TruthTable
from repro.netlist.netlist import Netlist
from repro.kernels.words import popcount
from repro.power.estimate import transition_probability
from repro.synth.subject import AND2, CONST0, INV, PI, SubjectGraph

AREA = "area"
POWER = "power"
DELAY = "delay"

#: Hard ceiling on cut width (cells above this are never matched).
MAX_CUT_SIZE = 5


@dataclass(frozen=True)
class MapOptions:
    """Mapper configuration."""

    mode: str = AREA  # "area", "power" or "delay"
    #: Nominal output load assumed per gate during delay-mode DP (the real
    #: load is unknown until the cover is chosen).
    nominal_load: float = 1.0
    cut_size: int = 4
    max_cuts_per_node: int = 12
    #: Patterns used to estimate node activities in power mode.
    num_patterns: int = 2048
    seed: int = 411
    input_probs: Optional[dict] = None
    po_load: float = 1.0
    #: Small area weight mixed into power cost to break ties.
    area_weight: float = 1e-6


@dataclass
class _Match:
    cell: Cell
    leaves: tuple[int, ...]  # node ids in cell pin order


class _Mapper:
    def __init__(self, graph: SubjectGraph, library: Library, options: MapOptions):
        self.graph = graph
        self.library = library
        self.options = options
        self.k = min(
            MAX_CUT_SIZE,
            options.cut_size,
            max((c.num_inputs for c in library.matchable_cells()), default=2),
        )
        self.match_index = library.match_index(self.k)
        # Per cut width n: the truth-table bits of x_0 .. x_{n-1}, and of 1.
        self._variables = [
            tuple(TruthTable.variable(i, n).bits for i in range(n))
            for n in range(self.k + 1)
        ]
        self._full = [TruthTable.constant(True, n).bits for n in range(self.k + 1)]
        self.inverter = library.inverter()
        self.live = graph.reachable_from_outputs()
        self.activity = self._node_activities() if options.mode == POWER else None

    # ------------------------------------------------------------------
    def _node_activities(self) -> dict[int, float]:
        from repro.netlist.simulate import random_patterns

        patterns = random_patterns(
            self.graph.pi_names,
            self.options.num_patterns,
            self.options.seed,
            self.options.input_probs,
        )
        values = self.graph.simulate(patterns)
        total = self.options.num_patterns
        return {
            node: transition_probability(popcount(values[node]) / total)
            for node in self.live
        }

    # ------------------------------------------------------------------
    # Cut enumeration
    # ------------------------------------------------------------------
    def _enumerate_cuts(self) -> dict[int, list[tuple[int, ...]]]:
        cuts: dict[int, list[tuple[int, ...]]] = {}
        # The same cuts as leaf sets, for one-union merges and the
        # dominance test.
        leaf_sets: dict[int, list[frozenset[int]]] = {}
        limit = self.options.max_cuts_per_node
        for node in self.live:
            kind = self.graph.kind[node]
            if kind in (PI, CONST0):
                cuts[node] = [(node,)]
                leaf_sets[node] = [frozenset((node,))]
                continue
            fanins = self.graph.fanin[node]
            if kind == INV:
                merged = dict(zip(cuts[fanins[0]], leaf_sets[fanins[0]]))
            else:
                unions: dict[frozenset[int], None] = {}
                right = leaf_sets[fanins[1]]
                for left in leaf_sets[fanins[0]]:
                    for other in right:
                        union = left | other
                        if len(union) <= self.k:
                            unions[union] = None
                merged = {tuple(sorted(union)): union for union in unions}
            merged[(node,)] = frozenset((node,))
            # Drop dominated cuts, keep the smallest: (len, cut) order.
            order = sorted(merged)
            order.sort(key=len)
            kept: list[tuple[int, ...]] = []
            kept_sets: list[frozenset[int]] = []
            for cut in order:
                leaves = merged[cut]
                if any(map(leaves.issuperset, kept_sets)):
                    continue
                kept.append(cut)
                kept_sets.append(leaves)
                if len(kept) >= limit:
                    break
            cuts[node] = kept
            leaf_sets[node] = kept_sets
        return cuts

    def _cut_function(self, node: int, cut: tuple[int, ...]) -> int:
        """Truth-table bits of ``node``'s local function over the cut leaves."""
        values = dict(zip(cut, self._variables[len(cut)]))
        full = self._full[len(cut)]
        kind = self.graph.kind
        fanin = self.graph.fanin

        def build(current: int) -> int:
            value = values.get(current)
            if value is not None:
                return value
            current_kind = kind[current]
            if current_kind == AND2:
                a, b = fanin[current]
                value = build(a) & build(b)
            elif current_kind == INV:
                value = build(fanin[current][0]) ^ full
            elif current_kind == CONST0:
                value = 0
            else:
                raise MappingError(f"cut leaves exclude PI node {current}")
            values[current] = value
            return value

        return build(node)

    def _matches(
        self, node: int, cut: tuple[int, ...]
    ) -> tuple[tuple[Cell, tuple[int, ...], bool], ...]:
        """(cell, perm, negated) triples: the cell computes the cut function,
        or its complement, on leaves ``cut[perm[0]], cut[perm[1]], ...``."""
        if len(cut) == 1 and cut[0] == node:
            return ()  # trivial cut: identity, never a cell
        return self.match_index.get((len(cut), self._cut_function(node, cut)), ())

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def _cell_delay(self, cell: Cell) -> float:
        """Linear-model delay under the nominal DP load."""
        tau = max(p.tau for p in cell.pins)
        resistance = max(p.resistance for p in cell.pins)
        return tau + resistance * self.options.nominal_load

    def _cell_cost(self, cell: Cell, leaves: tuple[int, ...]) -> float:
        if self.options.mode == AREA:
            return cell.area
        if self.options.mode == DELAY:
            return self._cell_delay(cell)
        cost = self.options.area_weight * cell.area
        for pin, leaf in zip(cell.pins, leaves):
            cost += pin.load * self.activity[leaf]
        return cost

    def _combine_leaf_costs(self, cell_cost: float, leaf_costs) -> float:
        """Delay composes by max over fanins, area/power by sum."""
        if self.options.mode == DELAY:
            return cell_cost + max(leaf_costs, default=0.0)
        return cell_cost + sum(leaf_costs)

    def _inverter_cost(self, node: int) -> float:
        if self.options.mode == AREA:
            return self.inverter.area
        if self.options.mode == DELAY:
            return self._cell_delay(self.inverter)
        return (
            self.options.area_weight * self.inverter.area
            + self.inverter.pins[0].load * self.activity[node]
        )

    # ------------------------------------------------------------------
    # Covering
    # ------------------------------------------------------------------
    def run(self, name: str) -> Netlist:
        cuts = self._enumerate_cuts()
        INF = float("inf")
        best_cost: dict[tuple[int, int], float] = {}
        best_choice: dict[tuple[int, int], object] = {}

        for node in self.live:
            kind = self.graph.kind[node]
            if kind == PI:
                best_cost[(node, 0)] = 0.0
                best_choice[(node, 0)] = "pi"
                best_cost[(node, 1)] = self._inverter_cost(node)
                best_choice[(node, 1)] = "bridge"
                continue
            if kind == CONST0:
                best_cost[(node, 0)] = 0.0
                best_choice[(node, 0)] = ("const", 0)
                best_cost[(node, 1)] = 0.0
                best_choice[(node, 1)] = ("const", 1)
                continue
            if kind == INV and self.graph.kind[self.graph.fanin[node][0]] == CONST0:
                # Structurally constant 1 (the only constant the graph's
                # local simplifications cannot fold away).
                best_cost[(node, 0)] = 0.0
                best_choice[(node, 0)] = ("const", 1)
                best_cost[(node, 1)] = 0.0
                best_choice[(node, 1)] = ("const", 0)
                continue
            for phase in (0, 1):
                best_cost[(node, phase)] = INF
            for cut in cuts[node]:
                for cell, perm, negated in self._matches(node, cut):
                    leaves = tuple(map(cut.__getitem__, perm))
                    phase = 1 if negated else 0
                    cost = self._combine_leaf_costs(
                        self._cell_cost(cell, leaves),
                        [best_cost[(leaf, 0)] for leaf in leaves],
                    )
                    if cost < best_cost[(node, phase)]:
                        best_cost[(node, phase)] = cost
                        best_choice[(node, phase)] = _Match(cell, leaves)
            # Inverter bridging between phases (one relaxation suffices).
            for phase in (0, 1):
                bridged = best_cost[(node, 1 - phase)] + self._inverter_cost(node)
                if bridged < best_cost[(node, phase)]:
                    best_cost[(node, phase)] = bridged
                    best_choice[(node, phase)] = "bridge"
            if best_cost[(node, 0)] == INF:
                raise MappingError(
                    f"no library cover for subject node {node} "
                    f"({self.graph.kind[node]}); the library may lack basic gates"
                )
        return self._construct(name, best_choice)

    # ------------------------------------------------------------------
    # Netlist construction
    # ------------------------------------------------------------------
    def _construct(self, name: str, choice: dict) -> Netlist:
        netlist = Netlist(name, self.library)
        for pi in self.graph.pi_names:
            netlist.add_input(pi)
        built: dict[tuple[int, int], object] = {}

        def build(node: int, phase: int):
            key = (node, phase)
            cached = built.get(key)
            if cached is not None:
                return cached
            what = choice[key]
            if what == "pi":
                gate = netlist.gates[self.graph._pi_name_of[node]]
            elif isinstance(what, tuple) and what[0] == "const":
                value = bool(what[1])
                cell = self.library.constant(value)
                if cell is None:
                    raise MappingError(
                        f"library lacks a constant-{int(value)} cell"
                    )
                gate = netlist.add_gate(cell, [], name=netlist.fresh_name("tie"))
            elif what == "bridge":
                inner = build(node, 1 - phase)
                gate = netlist.add_gate(
                    self.inverter, [inner], name=netlist.fresh_name("m")
                )
            else:
                match: _Match = what  # type: ignore[assignment]
                fanins = [build(leaf, 0) for leaf in match.leaves]
                gate = netlist.add_gate(
                    match.cell, fanins, name=netlist.fresh_name("m")
                )
            built[key] = gate
            return gate

        for po, node in self.graph.outputs.items():
            driver = build(node, 0)
            netlist.set_output(po, driver, self.options.po_load)
        netlist.sweep_dead()
        return netlist


def technology_map(
    graph: SubjectGraph,
    library: Library,
    options: Optional[MapOptions] = None,
    name: Optional[str] = None,
) -> Netlist:
    """Map a subject graph to the library; returns a mapped netlist."""
    options = options or MapOptions()
    if options.mode not in (AREA, POWER, DELAY):
        raise MappingError(f"unknown mapping mode {options.mode!r}")
    mapper = _Mapper(graph, library, options)
    return mapper.run(name or graph.name)
