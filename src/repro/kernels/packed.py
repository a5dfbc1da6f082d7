"""A packed, topologically-ordered flat-array view of one netlist.

:class:`PackedCircuit` compiles a netlist into contiguous buffers —
integer gate indices in topological order, per-gate op codes, fanin index
matrices, and a level-grouped evaluation schedule.  Two kinds of kernel
run on it:

- **batched** — :meth:`PackedCircuit.simulate` evaluates a whole
  *level × op group* per vectorized word operation over a ``(num_gates,
  nwords)`` ``uint64`` matrix;
- **cone-local** — :meth:`PackedCircuit.propagate_overlay` and
  :meth:`PackedCircuit.flip_mask` walk one signal's fanout cone gate by
  gate on Python-int pattern sets (:mod:`repro.kernels.bits`), where one
  int operation replaces a numpy call that costs more in dispatch than in
  bit math.

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

The committed values are the caller's: the batched kernel returns a
matrix whose row *i* is gate ``order[i]``; the cone-local kernels take
``rows``, a sequence whose entry *i* is gate ``order[i]``'s pattern int,
and never mutate it.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping, Sequence
from typing import Optional

import numpy as np

from repro.kernels.bits import (
    OP_AND2,
    OP_BUF,
    OP_CONST0,
    OP_CONST1,
    OP_CUBES,
    OP_INV,
    OP_NAND2,
    OP_NOR2,
    OP_OR2,
    OP_XNOR2,
    OP_XOR2,
    cell_op,
    eval_bits,
)
from repro.kernels.words import ALL_ONES, WORD_DTYPE
from repro.netlist.netlist import Gate, Netlist
from repro.netlist.traverse import topological_order


class _OpGroup:
    """All gates of one topological level sharing one op code."""

    __slots__ = ("op", "out", "fanins", "cubes", "nvars")

    def __init__(self, op, out, fanins, cubes, nvars):
        self.op = op
        #: Gate indices evaluated by this group, ascending.
        self.out = out
        #: ``(len(out), nvars)`` fanin index matrix (empty for constants).
        self.fanins = fanins
        #: SOP cubes for :data:`OP_CUBES` groups, ``()`` otherwise.
        self.cubes = cubes
        self.nvars = nvars


class PackedCircuit:
    """Flat-array compilation of one netlist's structure.

    Immutable once built; every query is index-based.  Use
    :func:`packed_view` instead of constructing directly so views are
    shared and stay coherent with netlist edits.
    """

    def __init__(self, netlist: Netlist, order: Optional[list[Gate]] = None):
        self.netlist = netlist
        order = order if order is not None else topological_order(netlist)
        self.order: list[Gate] = order
        self.names: list[str] = [g.name for g in order]
        self.index: dict[str, int] = {g.name: i for i, g in enumerate(order)}
        self.num_gates = len(order)

        #: Indices of primary inputs (always a topological prefix set).
        input_idx = []
        levels = [0] * self.num_gates
        for i, gate in enumerate(order):
            if gate.is_input:
                input_idx.append(i)
            elif gate.fanins:
                levels[i] = 1 + max(
                    levels[self.index[f.name]] for f in gate.fanins
                )
        self.input_idx = np.asarray(input_idx, dtype=np.int32)
        self.levels = np.asarray(levels, dtype=np.int32)

        #: Distinct primary-output driver indices, ascending.
        self.po_idx = np.asarray(
            sorted({self.index[g.name] for g in netlist.outputs.values()}),
            dtype=np.int32,
        )
        self.po_set: frozenset[int] = frozenset(self.po_idx.tolist())

        #: Per-gate structure for the cone-local kernels: op code, fanin
        #: index tuple, SOP cubes (inputs get ``None`` ops), and fanout
        #: index lists (ascending, so worklists stay topological).
        self.gate_op: list[Optional[str]] = [None] * self.num_gates
        self.gate_fanin_idx: list[tuple[int, ...]] = [()] * self.num_gates
        self.gate_cubes: list[tuple] = [()] * self.num_gates
        self.fanout_lists: list[list[int]] = [[] for _ in range(self.num_gates)]

        # Level-grouped evaluation schedule over the logic gates.
        by_level: dict[int, dict[tuple, list[int]]] = {}
        self._gate_cubes: dict[tuple, tuple] = {}
        for i, gate in enumerate(order):
            for fanin in gate.fanins:
                self.fanout_lists[self.index[fanin.name]].append(i)
            if gate.is_input:
                continue
            op, cubes = cell_op(gate.cell)
            self.gate_op[i] = op
            self.gate_fanin_idx[i] = tuple(
                self.index[f.name] for f in gate.fanins
            )
            self.gate_cubes[i] = cubes
            key = (op, len(gate.fanins)) if op != OP_CUBES else (
                op,
                len(gate.fanins),
                gate.cell.function.bits,
            )
            self._gate_cubes[key] = cubes
            by_level.setdefault(levels[i], {}).setdefault(key, []).append(i)
        self.schedule: list[list[_OpGroup]] = []
        for level in sorted(by_level):
            groups = []
            for key in sorted(by_level[level], key=str):
                members = by_level[level][key]
                op, nvars = key[0], key[1]
                fanins = np.asarray(
                    [
                        [self.index[f.name] for f in order[i].fanins]
                        for i in members
                    ],
                    dtype=np.int32,
                ).reshape(len(members), nvars)
                groups.append(
                    _OpGroup(
                        op,
                        np.asarray(members, dtype=np.int32),
                        fanins,
                        self._gate_cubes[key],
                        nvars,
                    )
                )
            self.schedule.append(groups)

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def _eval_group(
        self, group: _OpGroup, values: "np.ndarray"
    ) -> "np.ndarray":
        """Evaluate every gate of ``group`` against the ``values`` matrix."""
        op = group.op
        nwords = values.shape[1]
        count = len(group.out)
        if op in (OP_CONST0, OP_CONST1):
            fill = ALL_ONES if op == OP_CONST1 else WORD_DTYPE(0)
            return np.full((count, nwords), fill, dtype=WORD_DTYPE)
        fi = values[group.fanins]  # (count, nvars, nwords)
        if op == OP_BUF:
            return fi[:, 0].copy()
        if op == OP_INV:
            return ~fi[:, 0]
        if op == OP_AND2:
            return fi[:, 0] & fi[:, 1]
        if op == OP_OR2:
            return fi[:, 0] | fi[:, 1]
        if op == OP_XOR2:
            return fi[:, 0] ^ fi[:, 1]
        if op == OP_NAND2:
            return ~(fi[:, 0] & fi[:, 1])
        if op == OP_NOR2:
            return ~(fi[:, 0] | fi[:, 1])
        if op == OP_XNOR2:
            return ~(fi[:, 0] ^ fi[:, 1])
        # Generic SOP: same cube walk as evaluate_cell, broadcast over rows.
        result = np.zeros((count, nwords), dtype=WORD_DTYPE)
        for care, cube_values in group.cubes:
            term = np.full((count, nwords), ALL_ONES, dtype=WORD_DTYPE)
            var = 0
            care_left = care
            while care_left:
                if care_left & 1:
                    word = fi[:, var]
                    term &= word if (cube_values >> var) & 1 else ~word
                care_left >>= 1
                var += 1
            result |= term
        return result

    def simulate(
        self, patterns: Mapping[str, "np.ndarray"], nwords: int
    ) -> "np.ndarray":
        """Full forward evaluation; returns the ``(num_gates, nwords)`` matrix."""
        values = np.zeros((self.num_gates, nwords), dtype=WORD_DTYPE)
        for i in self.input_idx:
            values[i] = patterns[self.names[i]]
        for groups in self.schedule:
            for group in groups:
                values[group.out] = self._eval_group(group, values)
        return values

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
        differs under the overlay — exactly the contract of
        ``SimState.propagate_forced``, keyed by index instead of name.

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
