"""Bit-parallel logic simulation.

A :class:`SimState` binds a netlist to a pattern set and keeps every
stem's simulated patterns as one Python int (:mod:`repro.kernels.bits`):
bit ``64*w + b`` is the value under pattern ``64*w + b``, which is bit
*b* of word *w* of the ``uint64`` word array the pattern generators and
the batched candidate kernels use.  It supports:

- full evaluation in topological order
  (:meth:`~repro.kernels.packed.PackedCircuit.simulate`),
- incremental re-simulation of the transitive fanout of edited gates
  (what makes the optimizer's ``PG_C`` re-estimation cheap),
- observability masks for stems and branches, from forced values
  propagated through the packed view's cone-local overlay kernel without
  touching the committed state.

Every path evaluates one gate at a time on the ints, through the same
per-cell op codes and compiled cube lists.  Batched consumers read the
derived ``(num_gates, nwords)`` word matrix, :meth:`SimState.matrix`.
:func:`evaluate_cell` is the numpy per-cell reference every kernel is
tested against.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Optional

import numpy as np

from repro.errors import NetlistError
from repro.kernels.bits import (
    compiled_cubes,
    evaluate_cell_bits,
    full_mask,
    int_to_words,
    ints_to_matrix,
    matrix_to_ints,
    words_to_int,
)
from repro.kernels.words import WORD_BITS, validate_num_patterns
from repro.kernels.words import popcount  # noqa: F401  (re-exported)
from repro.library.cell import Cell
from repro.netlist.netlist import Gate, Netlist
from repro.netlist.traverse import (
    topological_index,
    transitive_fanout,
)

#: Default number of random patterns for probability estimation.
DEFAULT_NUM_PATTERNS = 16384

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def evaluate_cell(cell: Cell, fanin_words: Sequence[np.ndarray], nwords: int) -> np.ndarray:
    """Vector-evaluate one cell on its fanin value words.

    The numpy reference of cell evaluation: the int cell evaluator
    (:func:`~repro.kernels.bits.evaluate_cell_bits`) and every packed
    kernel built on it are tested bit for bit against it.
    """
    if cell.num_inputs != len(fanin_words):
        raise NetlistError(
            f"cell {cell.name!r}: expected {cell.num_inputs} fanin words"
        )
    result = np.zeros(nwords, dtype=np.uint64)
    for care, values in compiled_cubes(cell):
        term = np.full(nwords, _ALL_ONES, dtype=np.uint64)
        var = 0
        care_left = care
        while care_left:
            if care_left & 1:
                word = fanin_words[var]
                term &= word if (values >> var) & 1 else ~word
            care_left >>= 1
            var += 1
        result |= term
    return result


def random_patterns(
    input_names: Sequence[str],
    num_patterns: int = DEFAULT_NUM_PATTERNS,
    seed: int = 2024,
    input_probs: Optional[Mapping[str, float]] = None,
) -> dict[str, np.ndarray]:
    """Generate per-input random pattern words.

    ``input_probs`` gives P(input = 1) per name (default 0.5).  Biased
    probabilities are realised by thresholding uniform bytes per bit, so the
    sample respects the requested bias in expectation.
    """
    nwords = validate_num_patterns(num_patterns)
    rng = np.random.default_rng(seed)
    patterns: dict[str, np.ndarray] = {}
    for name in input_names:
        p = 0.5 if input_probs is None else float(input_probs.get(name, 0.5))
        if p == 0.5:
            patterns[name] = rng.integers(
                0, 2**64, size=nwords, dtype=np.uint64
            )
        else:
            bits = rng.random(num_patterns) < p
            packed = np.packbits(bits, bitorder="little")
            patterns[name] = packed.view(np.uint64).copy()
    return patterns


def exhaustive_patterns(input_names: Sequence[str]) -> dict[str, np.ndarray]:
    """All ``2**n`` input combinations (n <= 20 to stay bounded)."""
    n = len(input_names)
    if n > 20:
        raise NetlistError("exhaustive simulation limited to 20 inputs")
    total = max(WORD_BITS, 1 << n)
    nwords = total // WORD_BITS
    patterns: dict[str, np.ndarray] = {}
    index = np.arange(total, dtype=np.uint64)
    for var, name in enumerate(input_names):
        bits = (index >> np.uint64(var)) & np.uint64(1)
        packed = np.packbits(bits.astype(bool), bitorder="little")
        patterns[name] = packed.view(np.uint64).copy()
    return patterns


def covering_patterns(
    input_names: Sequence[str], num_patterns: int, seed: int
) -> tuple[dict[str, np.ndarray], bool]:
    """``num_patterns`` patterns that hold every input vector when they can.

    Returns ``(patterns, exhaustive)``.  When ``2**len(input_names) <=
    num_patterns`` the set is :func:`exhaustive_patterns` (never more
    words than ``num_patterns`` asks for) and ``exhaustive`` is True:
    two circuits whose outputs agree on it compute the same functions.
    Otherwise it is ``random_patterns(input_names, num_patterns, seed)``.
    """
    validate_num_patterns(num_patterns)
    if 1 << len(input_names) <= num_patterns:
        return exhaustive_patterns(input_names), True
    return random_patterns(input_names, num_patterns, seed), False


class SimState:
    """Committed simulation values for one netlist and pattern set.

    ``values`` maps every live stem to its pattern int.  ``patterns``
    holds one ``uint64`` word array per primary input (what
    :func:`random_patterns` and :func:`exhaustive_patterns` return).
    """

    def __init__(self, netlist: Netlist, patterns: Mapping[str, np.ndarray]):
        self.netlist = netlist
        missing = [n for n in netlist.input_names if n not in patterns]
        if missing:
            raise NetlistError(f"patterns missing for inputs {missing}")
        first = patterns[netlist.input_names[0]] if netlist.input_names else None
        self.nwords = len(first) if first is not None else 1
        self.num_patterns = self.nwords * WORD_BITS
        #: Every pattern set: complement a value ``v`` as ``full ^ v``.
        self.full = full_mask(self.nwords)
        self.values: dict[str, int] = {}
        for name in netlist.input_names:
            if len(patterns[name]) != self.nwords:
                raise NetlistError("inconsistent pattern word counts")
            self.values[name] = words_to_int(patterns[name])
        #: Committed values in packed-view order: a list of ints for the
        #: cone-local kernels and a ``(num_gates, nwords)`` word matrix for
        #: the batched ones.  Both are derived, tagged with the packed view
        #: they follow, and dropped whenever values change.
        self._rows: Optional[list[int]] = None
        self._rows_packed = None
        self._matrix: Optional[np.ndarray] = None
        self._matrix_packed = None
        self.resimulate_all()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _eval(self, gate: Gate, values: Mapping[str, int]) -> int:
        return evaluate_cell_bits(
            gate.cell, [values[f.name] for f in gate.fanins], self.full
        )

    def rows(self) -> list[int]:
        """Committed values as ints in the packed view's gate order.

        Entry *i* is the value of ``packed_view(netlist).order[i]``.
        Rebuilt lazily after any value change or structural edit; the
        cone-local kernels read it and never mutate it.
        """
        from repro.kernels.packed import packed_view

        packed = packed_view(self.netlist)
        if self._rows is None or self._rows_packed is not packed:
            values = self.values
            self._rows = [values[name] for name in packed.names]
            self._rows_packed = packed
        return self._rows

    def matrix(self) -> np.ndarray:
        """Committed values as the packed view's ``(num_gates, nwords)`` matrix.

        Row *i* holds the words of ``packed_view(netlist).order[i]``, the
        same bits as ``rows()[i]``.  Rebuilt lazily after any value change
        or structural edit; never mutated in place, so callers may keep
        row views.
        """
        from repro.kernels.packed import packed_view

        packed = packed_view(self.netlist)
        if self._matrix is None or self._matrix_packed is not packed:
            self._matrix = ints_to_matrix(self.rows(), self.nwords)
            self._matrix_packed = packed
        return self._matrix

    def stale_derived(self) -> list[str]:
        """Stems whose cached rows or matrix disagree with ``values``.

        Only caches built for the current packed view are compared (an
        older one is never read again).  Empty on a coherent state.
        """
        from repro.kernels.packed import packed_view

        packed = packed_view(self.netlist)
        stale: dict[str, None] = {}
        values = self.values
        if self._rows is not None and self._rows_packed is packed:
            for name, value in zip(packed.names, self._rows):
                if values.get(name) != value:
                    stale[name] = None
        if self._matrix is not None and self._matrix_packed is packed:
            for name, value in zip(packed.names, matrix_to_ints(self._matrix)):
                if values.get(name) != value:
                    stale[name] = None
        return list(stale)

    def resimulate_all(self) -> None:
        """Full forward evaluation on the packed per-gate kernel."""
        from repro.kernels.packed import packed_view

        packed = packed_view(self.netlist)
        rows = packed.simulate(self.values, self.full)
        # Every live stem takes its row's int: dead gates drop out.
        self.values = dict(zip(packed.names, rows))
        self._rows, self._rows_packed = rows, packed
        self._matrix = None

    def _drop_stale(self) -> None:
        live = self.netlist.gates
        for name in [n for n in self.values if n not in live]:
            del self.values[name]

    def resimulate_fanout(self, roots: Iterable[Gate]) -> list[Gate]:
        """Re-evaluate roots and their TFO; returns gates whose value changed.

        Each gate is evaluated exactly once, in topological order: a root
        lying inside another root's transitive fanout is *not* visited twice
        (and consequently appears at most once in the returned list).
        """
        changed: list[Gate] = []
        root_list = list(roots)
        pending: list[Gate] = []
        seen: set[int] = set()
        for gate in root_list + transitive_fanout(self.netlist, root_list):
            if gate.is_input or id(gate) in seen:
                continue
            seen.add(id(gate))
            pending.append(gate)
        index = topological_index(self.netlist)
        pending.sort(key=lambda g: index[id(g)])
        values = self.values
        for gate in pending:
            new = self._eval(gate, values)
            if values.get(gate.name) != new:
                values[gate.name] = new
                changed.append(gate)
        self._drop_stale()
        self._rows = None
        self._matrix = None
        return changed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def value(self, name: str) -> int:
        """The committed pattern int of stem ``name``."""
        try:
            return self.values[name]
        except KeyError:
            raise NetlistError(f"no simulated value for {name!r}") from None

    def words(self, name: str) -> np.ndarray:
        """The committed value of stem ``name`` as a ``uint64`` word array."""
        return int_to_words(self.value(name), self.nwords)

    def ones_count(self, name: str) -> int:
        return self.value(name).bit_count()

    def signal_probability(self, name: str) -> float:
        return self.ones_count(name) / self.num_patterns

    def output_words(self) -> dict[str, np.ndarray]:
        return {
            po: self.words(driver.name)
            for po, driver in self.netlist.outputs.items()
        }

    def eval_with_pin(self, sink: Gate, pin: int, value: int) -> int:
        """``sink``'s value with input ``pin`` driven by ``value``.

        Every other pin reads its committed value; nothing is stored.
        """
        values = self.values
        ins = [
            value if i == pin else values[f.name]
            for i, f in enumerate(sink.fanins)
        ]
        return evaluate_cell_bits(sink.cell, ins, self.full)

    # ------------------------------------------------------------------
    # Observability (no committed-state mutation)
    # ------------------------------------------------------------------
    def stem_observability(self, gate: Gate) -> int:
        """Patterns on which flipping the stem flips some primary output."""
        from repro.kernels.packed import packed_view

        packed = packed_view(self.netlist)
        return packed.flip_mask(self.rows(), packed.index[gate.name], self.full)

    def branch_observability(self, sink: Gate, pin: int) -> int:
        """Patterns on which flipping one input branch flips some output."""
        if sink.is_input:
            raise NetlistError("primary inputs have no input branches")
        flipped = self.full ^ self.values[sink.fanins[pin].name]
        flipped_sink = self.eval_with_pin(sink, pin, flipped)
        if flipped_sink == self.values[sink.name]:
            return 0
        from repro.kernels.packed import packed_view

        packed = packed_view(self.netlist)
        rows = self.rows()
        overlay = packed.propagate_overlay(
            rows, {packed.index[sink.name]: flipped_sink}, self.full
        )
        return packed.output_diff_mask(rows, overlay)
