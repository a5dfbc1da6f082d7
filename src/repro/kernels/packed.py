"""A packed, topologically-ordered flat-array view of one netlist.

:class:`PackedCircuit` compiles a netlist into contiguous buffers —
integer gate indices in topological order, per-gate op codes, fanin index
matrices, and a level-grouped evaluation schedule — so the bit-parallel
hot paths (full simulation, forced-overlay propagation, flip-mask
observability) run as a handful of vectorized word operations per
*level × op group* instead of one Python dict walk per gate.

Evaluation is bit-identical to :func:`repro.netlist.simulate.evaluate_cell`
by construction: the fast op codes are recognised from the cell's truth
table (all pure bitwise identities) and every other cell evaluates the
same compiled irredundant SOP cube list, just broadcast over all gates of
the group at once.

Coherence
---------
The packed view is immutable; :func:`packed_view` caches one per netlist
and revalidates it against the identity of the netlist's cached
topological order, which every structural edit (fanin rewires, fanout
moves, gate adds/removes, PO rebinds) invalidates.  Callers therefore
always see a view consistent with the current structure without any
explicit notification protocol.

The value **matrix** is the caller's: kernels take a ``(num_gates,
nwords)`` ``uint64`` array whose row *i* is the committed value word of
gate ``order[i]`` and never mutate it (overlay kernels copy).
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from typing import Optional

import numpy as np

from repro.kernels.words import ALL_ONES, WORD_DTYPE
from repro.netlist.netlist import Gate, Netlist
from repro.netlist.traverse import topological_order

# Op codes for the common cell functions (pure bitwise identities).
OP_CONST0 = "const0"
OP_CONST1 = "const1"
OP_BUF = "buf"
OP_INV = "inv"
OP_AND2 = "and2"
OP_OR2 = "or2"
OP_XOR2 = "xor2"
OP_NAND2 = "nand2"
OP_NOR2 = "nor2"
OP_XNOR2 = "xnor2"
#: Fallback: evaluate the cell's compiled SOP cube list.
OP_CUBES = "cubes"

_TWO_INPUT_OPS = {
    0b1000: OP_AND2,
    0b1110: OP_OR2,
    0b0110: OP_XOR2,
    0b0111: OP_NAND2,
    0b0001: OP_NOR2,
    0b1001: OP_XNOR2,
}


def _classify(gate: Gate) -> tuple[str, tuple[tuple[int, int], ...]]:
    """(op code, cube list) for one logic gate."""
    from repro.netlist.simulate import _compiled_cubes

    function = gate.cell.function
    nvars = function.nvars
    if nvars == 0:
        return (OP_CONST1 if function.bits & 1 else OP_CONST0), ()
    if nvars == 1:
        if function.bits == 0b10:
            return OP_BUF, ()
        if function.bits == 0b01:
            return OP_INV, ()
    elif nvars == 2:
        op = _TWO_INPUT_OPS.get(function.bits)
        if op is not None:
            return op, ()
    return OP_CUBES, _compiled_cubes(gate.cell)


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
            op, cubes = _classify(gate)
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
        self, group: _OpGroup, values: "np.ndarray", rows: "np.ndarray"
    ) -> "np.ndarray":
        """Evaluate ``rows`` (positions into ``group.out``) against ``values``."""
        op = group.op
        nwords = values.shape[1]
        count = len(rows)
        if op in (OP_CONST0, OP_CONST1):
            fill = ALL_ONES if op == OP_CONST1 else WORD_DTYPE(0)
            return np.full((count, nwords), fill, dtype=WORD_DTYPE)
        fi = values[group.fanins[rows]]  # (count, nvars, nwords)
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
                all_rows = np.arange(len(group.out))
                values[group.out] = self._eval_group(group, values, all_rows)
        return values

    def _eval_gate(
        self,
        i: int,
        overlay: Mapping[int, "np.ndarray"],
        matrix: "np.ndarray",
    ) -> "np.ndarray":
        """Evaluate one gate against committed rows overridden by ``overlay``."""
        op = self.gate_op[i]
        fis = self.gate_fanin_idx[i]
        get = overlay.get
        if op is OP_CONST0:
            return np.zeros(matrix.shape[1], dtype=WORD_DTYPE)
        if op is OP_CONST1:
            return np.full(matrix.shape[1], ALL_ONES, dtype=WORD_DTYPE)
        a = get(fis[0], matrix[fis[0]]) if fis else None
        if op is OP_BUF:
            return a
        if op is OP_INV:
            return ~a
        b = get(fis[1], matrix[fis[1]]) if len(fis) > 1 else None
        if op is OP_AND2:
            return a & b
        if op is OP_OR2:
            return a | b
        if op is OP_XOR2:
            return a ^ b
        if op is OP_NAND2:
            return ~(a & b)
        if op is OP_NOR2:
            return ~(a | b)
        if op is OP_XNOR2:
            return ~(a ^ b)
        words = [get(f, matrix[f]) for f in fis]
        nwords = matrix.shape[1]
        result = np.zeros(nwords, dtype=WORD_DTYPE)
        for care, cube_values in self.gate_cubes[i]:
            term = np.full(nwords, ALL_ONES, dtype=WORD_DTYPE)
            var = 0
            care_left = care
            while care_left:
                if care_left & 1:
                    word = words[var]
                    term &= word if (cube_values >> var) & 1 else ~word
                care_left >>= 1
                var += 1
            result |= term
        return result

    def propagate_overlay(
        self,
        matrix: "np.ndarray",
        forced: Mapping[int, "np.ndarray"],
    ) -> dict[int, "np.ndarray"]:
        """Propagate forced values through their transitive fanout.

        ``matrix`` holds the committed value words (row per gate, never
        mutated).  Returns ``index -> word`` for every forced gate plus
        every downstream gate whose value differs under the overlay —
        exactly the contract of ``SimState.propagate_forced``, keyed by
        index instead of name.

        The walk is cone-local and diff-driven: only gates with at least
        one overlaid fanin are evaluated, and a gate whose value matches
        the committed row stops the propagation through it.  Forced gates
        themselves are pinned, never re-evaluated.
        """
        if not forced:
            return {}
        overlay: dict[int, np.ndarray] = dict(forced)
        heap: list[int] = []
        queued: set[int] = set()
        for i in forced:
            for sink in self.fanout_lists[i]:
                if sink not in queued:
                    queued.add(sink)
                    heapq.heappush(heap, sink)
        while heap:
            i = heapq.heappop(heap)
            if i in forced:
                continue  # pinned: fanouts were seeded above
            new = self._eval_gate(i, overlay, matrix)
            if np.array_equal(new, matrix[i]):
                continue
            overlay[i] = new
            for sink in self.fanout_lists[i]:
                if sink not in queued:
                    queued.add(sink)
                    heapq.heappush(heap, sink)
        return overlay

    def output_diff_mask(
        self,
        matrix: "np.ndarray",
        overlay: Mapping[int, "np.ndarray"],
        nwords: int,
    ) -> "np.ndarray":
        """OR over PO drivers of (overlay value XOR committed value)."""
        mask = np.zeros(nwords, dtype=WORD_DTYPE)
        for i in self.po_idx:
            word = overlay.get(int(i))
            if word is not None:
                mask |= word ^ matrix[i]
        return mask

    def flip_mask(
        self, matrix: "np.ndarray", root: int, nwords: int
    ) -> "np.ndarray":
        """Patterns on which flipping gate ``root`` flips some primary output."""
        overlay = self.propagate_overlay(matrix, {root: ~matrix[root]})
        return self.output_diff_mask(matrix, overlay, nwords)


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
