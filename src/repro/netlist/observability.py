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

The maps describe one netlist and simulation state; after an edit the
caller builds new maps (candidate generation does, every round).
"""

from __future__ import annotations

from repro.errors import NetlistError
from repro.netlist.netlist import Gate
from repro.netlist.simulate import SimState
from repro.netlist.traverse import topological_order


class ObservabilityMaps:
    """Stem and branch observability masks for one committed ``SimState``."""

    def __init__(self, sim: SimState):
        self.sim = sim
        self.netlist = sim.netlist
        #: name -> mask of patterns where flipping the stem flips some PO.
        self.stem: dict[str, int] = {}
        # Boolean differences, keyed (sink name, pin).
        self._bd: dict[tuple[str, int], int] = {}
        # One reverse-topological sweep: every sink's mask is final first.
        for gate in reversed(topological_order(self.netlist)):
            self.stem[gate.name] = self._stem_mask(gate)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def branch(self, sink: Gate, pin: int) -> int:
        """Mask of patterns where flipping one input branch flips some PO."""
        if sink.is_input:
            raise NetlistError("primary inputs have no input branches")
        return self._bd_mask(sink, pin) & self.stem[sink.name]

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
