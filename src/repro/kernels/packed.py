"""A packed, topologically-ordered view of one netlist as flat per-gate lists.

:class:`PackedCircuit` compiles a netlist into per-gate lists indexed in
topological order: op codes, fanin index tuples, SOP cubes, fanout index
lists, and the set of primary-output drivers.  Every kernel on it walks
gates one at a time on Python-int pattern sets
(:mod:`repro.kernels.bits`), where one int operation replaces a numpy
call that costs more in dispatch than in bit math:

- :meth:`PackedCircuit.simulate` evaluates every gate in order — the one
  full-simulation kernel;
- :meth:`PackedCircuit.propagate_overlay` and
  :meth:`PackedCircuit.flip_mask` walk one signal's fanout cone, visiting
  only gates a changed fanin reaches.

Evaluation is bit-identical to :func:`repro.netlist.simulate.evaluate_cell`
by construction: the fast op codes are recognised from the cell's truth
table (all pure bitwise identities) and every other cell evaluates the
same compiled irredundant SOP cube list.

Coherence
---------
The packed view is immutable; :func:`packed_view` caches one per netlist
and revalidates it against the identity of the netlist's cached
topological order, which every structural edit (fanin rewires, fanout
moves, gate adds/removes, PO rebinds) invalidates.  Callers therefore
always see a view consistent with the current structure without any
explicit notification protocol.

The committed values are the caller's: :meth:`~PackedCircuit.simulate`
returns a fresh list whose entry *i* is gate ``order[i]``'s pattern int;
the cone-local kernels take such a list, ``rows``, and never mutate it.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping, Sequence
from typing import Optional

from repro.kernels.bits import cell_op, eval_bits
from repro.netlist.netlist import Gate, Netlist
from repro.netlist.traverse import topological_order


class PackedCircuit:
    """Flat per-gate lists compiled from one netlist's structure.

    Immutable once built; every query is index-based.  Use
    :func:`packed_view` instead of constructing directly so views are
    shared and stay coherent with netlist edits.
    """

    def __init__(self, netlist: Netlist, order: Optional[list[Gate]] = None):
        order = order if order is not None else topological_order(netlist)
        self.order: list[Gate] = order
        self.names: list[str] = [g.name for g in order]
        self.index: dict[str, int] = {g.name: i for i, g in enumerate(order)}
        self.num_gates = len(order)

        #: Distinct primary-output driver indices.
        self.po_set: frozenset[int] = frozenset(
            self.index[g.name] for g in netlist.outputs.values()
        )

        #: Per-gate structure: op code, fanin index tuple, SOP cubes
        #: (inputs get ``None`` ops), and fanout index lists (ascending, so
        #: worklists stay topological).
        self.gate_op: list[Optional[str]] = [None] * self.num_gates
        self.gate_fanin_idx: list[tuple[int, ...]] = [()] * self.num_gates
        self.gate_cubes: list[tuple] = [()] * self.num_gates
        self.fanout_lists: list[list[int]] = [[] for _ in range(self.num_gates)]
        for i, gate in enumerate(order):
            for fanin in gate.fanins:
                self.fanout_lists[self.index[fanin.name]].append(i)
            if gate.is_input:
                continue
            self.gate_op[i], self.gate_cubes[i] = cell_op(gate.cell)
            self.gate_fanin_idx[i] = tuple(
                self.index[f.name] for f in gate.fanins
            )

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def simulate(self, inputs: Mapping[str, int], full: int) -> list[int]:
        """Full forward evaluation; returns every gate's pattern int.

        ``inputs`` maps each primary input's name to its pattern int
        (other keys are ignored) and ``full`` is the all-patterns int.
        Entry *i* of the result is the value of gate ``order[i]``.
        """
        rows: list[int] = []
        append = rows.append
        for name, op, cubes, fanins in zip(
            self.names, self.gate_op, self.gate_cubes, self.gate_fanin_idx
        ):
            if op is None:
                append(inputs[name])
            else:
                append(eval_bits(op, cubes, [rows[f] for f in fanins], full))
        return rows

    def propagate_overlay(
        self,
        rows: Sequence[int],
        forced: Mapping[int, int],
        full: int,
    ) -> dict[int, int]:
        """Propagate forced values through their transitive fanout.

        ``rows`` holds the committed pattern ints (entry per gate, never
        mutated) and ``full`` the all-patterns int.  Returns ``index ->
        int`` for every forced gate plus every downstream gate whose value
        differs under the overlay.

        The walk is cone-local and diff-driven: only gates with at least
        one overlaid fanin are evaluated, and a gate whose value matches
        the committed row stops the propagation through it.  Forced gates
        themselves are pinned, never re-evaluated.
        """
        if not forced:
            return {}
        overlay: dict[int, int] = dict(forced)
        get = overlay.get
        fanout_lists = self.fanout_lists
        gate_op = self.gate_op
        gate_cubes = self.gate_cubes
        fanin_idx = self.gate_fanin_idx
        heap: list[int] = []
        queued: set[int] = set()
        for i in forced:
            for sink in fanout_lists[i]:
                if sink not in queued:
                    queued.add(sink)
                    heapq.heappush(heap, sink)
        while heap:
            i = heapq.heappop(heap)
            if i in forced:
                continue  # pinned: fanouts were seeded above
            new = eval_bits(
                gate_op[i],
                gate_cubes[i],
                [get(f, rows[f]) for f in fanin_idx[i]],
                full,
            )
            if new == rows[i]:
                continue
            overlay[i] = new
            for sink in fanout_lists[i]:
                if sink not in queued:
                    queued.add(sink)
                    heapq.heappush(heap, sink)
        return overlay

    def output_diff_mask(
        self, rows: Sequence[int], overlay: Mapping[int, int]
    ) -> int:
        """OR over PO drivers of (overlay value XOR committed value)."""
        mask = 0
        po_set = self.po_set
        for i, value in overlay.items():
            if i in po_set:
                mask |= value ^ rows[i]
        return mask

    def flip_mask(self, rows: Sequence[int], root: int, full: int) -> int:
        """Patterns on which flipping gate ``root`` flips some primary output."""
        overlay = self.propagate_overlay(rows, {root: full ^ rows[root]}, full)
        return self.output_diff_mask(rows, overlay)


def packed_view(netlist: Netlist) -> PackedCircuit:
    """The shared packed view of ``netlist``, rebuilt after structural edits.

    Validity is keyed on the identity of the netlist's cached topological
    order: every structural edit clears that cache, so a stale view can
    never be returned.
    """
    order = topological_order(netlist)
    cached = getattr(netlist, "_packed_cache", None)
    if cached is not None and cached[0] is order:
        return cached[1]
    packed = PackedCircuit(netlist, order)
    netlist._packed_cache = (order, packed)
    return packed
