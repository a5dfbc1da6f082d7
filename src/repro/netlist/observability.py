"""Batched observability masks for every stem and branch.

``SimState.stem_observability`` answers "on which patterns does flipping
this stem flip some primary output?" by propagating a forced flip through
the stem's transitive fanout — one cone walk *per stem*.  Candidate
generation asks that question for every stem and every branch of every
round, so the per-round cost is O(stems × TFO-size) gate evaluations.

:class:`ObservabilityMaps` computes the same masks for *all* stems in one
reverse-topological sweep.  The recurrence is exact because gate evaluation
is bitwise: under a single pattern bit, every downstream signal is a pure
boolean function of a stem's bit, so for a stem ``g`` with exactly one
fanout branch ``(s, p)``

    obs(g) = bd(s, p) & obs(s)

where ``bd(s, p) = eval(s with pin p flipped) XOR value(s)`` is the boolean
difference of the sink's cell function.  Primary-output stems are
observable everywhere, fanout-free stems nowhere.  Multi-fanout stems
reconverge — the OR over branch masks is only an upper bound there — so
they fall back to an exact diff-driven flip propagation that skips every
fanout gate whose fanin words are untouched.  Branch masks come for free:

    obs(g -> s.pin p) = bd(s, p) & obs(s)

which matches ``SimState.branch_observability`` bit for bit (including its
early-return-zeros case, where ``bd`` is identically zero).

Masks, boolean differences and the committed values they read are
Python-int pattern sets (:mod:`repro.kernels.bits`), so each recurrence
step is one or two int operations.

Masks stay valid across netlist edits through
:meth:`ObservabilityMaps.update_after_edit`: a mask can only change if the
edit touched the stem's transitive fanout, so the recompute set is the
dirty gates, their direct sinks (whose boolean differences depend on the
dirtied fanin words), and the transitive fanin of both.  Everything else
keeps its existing mask.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import NetlistError
from repro.netlist.netlist import Gate
from repro.netlist.simulate import SimState
from repro.netlist.traverse import (
    topological_order,
    transitive_fanin,
)


class ObservabilityMaps:
    """Stem and branch observability masks for one committed ``SimState``."""

    def __init__(self, sim: SimState):
        self.sim = sim
        self.netlist = sim.netlist
        #: name -> mask of patterns where flipping the stem flips some PO.
        self.stem: dict[str, int] = {}
        # Boolean differences, keyed (sink name, pin).
        self._bd: dict[tuple[str, int], int] = {}
        self.recompute()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def branch(self, sink: Gate, pin: int) -> int:
        """Mask of patterns where flipping one input branch flips some PO."""
        if sink.is_input:
            raise NetlistError("primary inputs have no input branches")
        return self._bd_mask(sink, pin) & self.stem[sink.name]

    # ------------------------------------------------------------------
    # Full sweep
    # ------------------------------------------------------------------
    def recompute(self) -> None:
        """Rebuild every stem mask in one reverse-topological sweep."""
        self.stem.clear()
        self._bd.clear()
        for gate in reversed(topological_order(self.netlist)):
            self.stem[gate.name] = self._stem_mask(gate)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def update_after_edit(self, dirty: Iterable[Gate]) -> set[str]:
        """Refresh masks after a netlist edit; returns names whose mask changed.

        ``dirty`` must contain every live gate whose committed value, fanin
        list, fanout list, or primary-output binding changed (newly added
        gates included).  Removed gates are detected by absence from the
        netlist.
        """
        live = self.netlist.gates
        for name in [n for n in self.stem if n not in live]:
            del self.stem[name]
        for key in [k for k in self._bd if k[0] not in live]:
            del self._bd[key]

        frontier: set[str] = set()
        for gate in dirty:
            if gate.name not in live:
                continue
            frontier.add(gate.name)
            for sink, _pin in gate.fanouts:
                frontier.add(sink.name)
        if not frontier:
            return set()
        # Boolean differences of dirtied sinks are stale.
        for key in [k for k in self._bd if k[0] in frontier]:
            del self._bd[key]
        # A stem mask depends only on the stem's transitive fanout, so the
        # recompute set is the frontier plus everything upstream of it.
        seeds = [live[name] for name in frontier]
        recompute_ids = {id(g) for g in seeds}
        recompute_ids.update(
            id(g) for g in transitive_fanin(self.netlist, seeds)
        )
        changed: set[str] = set()
        for gate in reversed(topological_order(self.netlist)):
            if id(gate) not in recompute_ids:
                continue
            new = self._stem_mask(gate)
            if self.stem.get(gate.name) == new:
                continue
            self.stem[gate.name] = new
            changed.add(gate.name)
        return changed

    # ------------------------------------------------------------------
    # Mask computation
    # ------------------------------------------------------------------
    def _stem_mask(self, gate: Gate) -> int:
        if gate.po_names:
            return self.sim.full
        branches = gate.fanouts
        if not branches:
            return 0
        if len(branches) == 1:
            sink, pin = branches[0]
            return self._bd_mask(sink, pin) & self.stem[sink.name]
        # Reconvergent multi-fanout stem: exact flip propagation.
        return self.sim.stem_observability(gate)

    def _bd_mask(self, sink: Gate, pin: int) -> int:
        key = (sink.name, pin)
        cached = self._bd.get(key)
        if cached is None:
            sim = self.sim
            flipped = sim.full ^ sim.values[sink.fanins[pin].name]
            cached = sim.eval_with_pin(sink, pin, flipped) ^ sim.values[sink.name]
            self._bd[key] = cached
        return cached
