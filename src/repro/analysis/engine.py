"""The fixed-point worklist solver.

One :class:`DataflowEngine` is bound to a netlist and runs any
:class:`DataflowAnalysis` — a direction, a lattice, and a pure transfer
function — to a fixed point:

- the worklist is a priority heap keyed by the node's **topological
  level** (taken from the packed-kernel view), so a forward analysis
  over a DAG visits every node exactly once and a backward analysis
  visits in reverse level order — the classic
  "chaotic iteration converges, ordered iteration converges in one
  sweep" argument (ALGORITHMS.md §18);
- transfer functions are pure: the value of a node is a function of its
  neighbours' values only, so re-running transfer is always safe;
- nodes revisited more than ``widen_after`` times have their value
  widened (default: straight to ``TOP``), which bounds the iteration
  count at ``nodes x (widen_after + lattice height)`` even for
  non-monotone transfers or cyclic graphs.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, Iterable, Mapping, Optional

from repro.netlist.netlist import Gate, Netlist
from repro.netlist.traverse import topological_order

from repro.analysis.lattice import Lattice

ValueMap = Dict[str, Hashable]


class DataflowAnalysis:
    """One analysis: a direction, a lattice, and a transfer function."""

    #: Stable identifier used in fact provenance and error messages.
    name: str = "analysis"
    #: ``"forward"`` (values flow fanin -> fanout) or ``"backward"``.
    direction: str = "forward"
    #: The value lattice.
    lattice: Lattice = Lattice()

    def transfer(self, gate: Gate, values: Mapping[str, Hashable]) -> Hashable:
        """The new value of ``gate`` given its neighbours' values.

        Must be *pure*: read only ``gate`` and ``values`` (missing
        neighbours read as bottom via ``values.get``).
        """
        raise NotImplementedError


class DataflowEngine:
    """Runs analyses to fixed point over one netlist."""

    def __init__(self, netlist: Netlist, widen_after: int = 4):
        if widen_after < 1:
            raise ValueError("widen_after must be >= 1")
        self.netlist = netlist
        self.widen_after = widen_after
        self._levels: Optional[Dict[str, int]] = None
        self._levels_key: Optional[list] = None

    # ------------------------------------------------------------------
    # Level priorities
    # ------------------------------------------------------------------
    def levels(self) -> Dict[str, int]:
        """Topological level per gate, cached per structural state."""
        key = topological_order(self.netlist)
        if self._levels is None or self._levels_key is not key:
            self._levels = self._compute_levels()
            self._levels_key = key
        return self._levels

    def _compute_levels(self) -> Dict[str, int]:
        from repro.kernels.packed import packed_view

        packed = packed_view(self.netlist)
        return {
            name: int(packed.levels[index])
            for name, index in packed.index.items()
        }

    # ------------------------------------------------------------------
    # Full analysis
    # ------------------------------------------------------------------
    def run(self, analysis: DataflowAnalysis) -> ValueMap:
        """Fixed-point values for every gate, from a bottom start."""
        bottom = analysis.lattice.bottom()
        values: ValueMap = {
            gate.name: bottom for gate in topological_order(self.netlist)
        }
        self._solve(analysis, values, seeds=list(values))
        return values

    # ------------------------------------------------------------------
    # The worklist core
    # ------------------------------------------------------------------
    def _solve(
        self,
        analysis: DataflowAnalysis,
        values: ValueMap,
        seeds: Iterable[str],
    ) -> None:
        lattice = analysis.lattice
        forward = analysis.direction == "forward"
        if not forward and analysis.direction != "backward":
            raise ValueError(
                f"analysis {analysis.name!r} has unknown direction "
                f"{analysis.direction!r}"
            )
        levels = self.levels()
        gates = self.netlist.gates
        sign = 1 if forward else -1

        def priority(name: str) -> int:
            return sign * levels.get(name, 0)

        heap = [(priority(name), name) for name in seeds if name in gates]
        heapq.heapify(heap)
        queued = {name for _, name in heap}
        visits: Dict[str, int] = {}
        while heap:
            _, name = heapq.heappop(heap)
            queued.discard(name)
            gate = gates.get(name)
            if gate is None:
                continue
            new = analysis.transfer(gate, values)
            old = values.get(name, lattice.bottom())
            if new == old:
                continue
            count = visits.get(name, 0) + 1
            visits[name] = count
            if count > self.widen_after:
                new = lattice.widen(old, new)
                if new == old:
                    continue
            values[name] = new
            if forward:
                neighbours: Iterable[Gate] = gate.fanout_gates()
            else:
                neighbours = gate.fanins
            for neighbour in neighbours:
                if neighbour.name not in queued:
                    queued.add(neighbour.name)
                    heapq.heappush(
                        heap, (priority(neighbour.name), neighbour.name)
                    )
