"""Python-int pattern sets: the per-gate simulation representation.

A signal's simulated patterns are one non-negative Python int.  Bit
``64*w + b`` of the int is pattern ``64*w + b``, that is bit *b* of word
*w* of the ``uint64`` word array the pattern generators and the batched
candidate kernels use.  The conversions below fix the word byte order
explicitly (``'<u8'``), so the bit order holds on any host.

All simulation runs on these ints, gate by gate (full and incremental
simulation, overlay propagation, observability, ``PG_C``, fault
simulation, the triage simulation stage): an AND of two 512-pattern sets
is one C-level operation on the int instead of a numpy call whose
dispatch costs ten times the bit math.  Kernels that need a matrix
(candidate compatibility, pair tables) read a ``(gates, nwords)``
``uint64`` matrix derived with :func:`ints_to_matrix`.

Inversion is ``full ^ x`` with ``full = full_mask(nwords)``, never ``~x``:
on a Python int ``~x`` is negative, not the complement within the pattern
width.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.errors import NetlistError
from repro.kernels.words import WORD_BITS, WORD_DTYPE
from repro.logic.sop import Cover

#: A little-endian 64-bit word: word *w* holds bits ``64*w .. 64*w+63``.
LE_WORD = np.dtype("<u8")

#: Bytes per simulation word.
WORD_BYTES = WORD_BITS // 8

#: One fully-set word, for slicing a word out of a pattern int.
WORD_MASK = (1 << WORD_BITS) - 1

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


def full_mask(nwords: int) -> int:
    """The pattern set with every one of ``nwords * 64`` patterns set."""
    return (1 << (WORD_BITS * nwords)) - 1


def words_to_int(words) -> int:
    """The pattern int of a ``uint64`` word array."""
    return int.from_bytes(np.asarray(words, dtype=LE_WORD).tobytes(), "little")


def int_to_words(value: int, nwords: int) -> np.ndarray:
    """The ``uint64`` word array of a pattern int (a fresh array)."""
    data = value.to_bytes(WORD_BYTES * nwords, "little")
    return np.frombuffer(data, dtype=LE_WORD).astype(WORD_DTYPE)


def ints_to_matrix(values: Sequence[int], nwords: int) -> np.ndarray:
    """Stack pattern ints as the rows of a ``(len(values), nwords)`` matrix."""
    size = WORD_BYTES * nwords
    data = b"".join(value.to_bytes(size, "little") for value in values)
    matrix = np.frombuffer(data, dtype=LE_WORD).astype(WORD_DTYPE)
    return matrix.reshape(len(values), nwords)


def matrix_to_ints(matrix: np.ndarray) -> list[int]:
    """The pattern int of every row of a ``(rows, nwords)`` word matrix."""
    size = WORD_BYTES * matrix.shape[1]
    data = np.ascontiguousarray(matrix, dtype=LE_WORD).tobytes()
    from_bytes = int.from_bytes
    return [
        from_bytes(data[start:start + size], "little")
        for start in range(0, len(data), size)
    ]


def first_pattern(diff: int) -> int:
    """The counterexample pattern of a nonzero difference set.

    The first word holding a difference, and within it the highest set
    bit: the pattern the word-array search (``np.nonzero`` then
    ``bit_length``) has always picked.
    """
    word = ((diff & -diff).bit_length() - 1) // WORD_BITS
    low = WORD_BITS * word
    return low + ((diff >> low) & WORD_MASK).bit_length() - 1


# ----------------------------------------------------------------------
# Cell evaluation
# ----------------------------------------------------------------------
# Compiled cube lists, keyed by (nvars, truth-table bits).
_CELL_CUBES: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
# (op code, cube list), keyed the same way.
_CELL_OPS: dict[tuple[int, int], tuple[str, tuple]] = {}


def compiled_cubes(cell) -> tuple[tuple[int, int], ...]:
    """(care, values) literal masks of an irredundant SOP of the cell."""
    key = (cell.function.nvars, cell.function.bits)
    cached = _CELL_CUBES.get(key)
    if cached is None:
        cover = Cover.from_truthtable(cell.function)
        while cover.merge_distance_one():
            pass
        cover.remove_contained()
        cached = tuple((cube.care, cube.values) for cube in cover.cubes)
        _CELL_CUBES[key] = cached
    return cached


def cell_op(cell) -> tuple[str, tuple]:
    """(op code, cube list) of a cell; the cube list only for ``OP_CUBES``."""
    function = cell.function
    key = (function.nvars, function.bits)
    cached = _CELL_OPS.get(key)
    if cached is not None:
        return cached
    op: Optional[str] = None
    if function.nvars == 0:
        op = OP_CONST1 if function.bits & 1 else OP_CONST0
    elif function.nvars == 1:
        op = {0b10: OP_BUF, 0b01: OP_INV}.get(function.bits)
    elif function.nvars == 2:
        op = _TWO_INPUT_OPS.get(function.bits)
    cached = (op, ()) if op is not None else (OP_CUBES, compiled_cubes(cell))
    _CELL_OPS[key] = cached
    return cached


def eval_bits(op: str, cubes: tuple, ins: Sequence[int], full: int) -> int:
    """One gate on pattern ints; the same bits ``evaluate_cell`` computes."""
    if op is OP_NAND2:
        return full ^ (ins[0] & ins[1])
    if op is OP_INV:
        return full ^ ins[0]
    if op is OP_NOR2:
        return full ^ (ins[0] | ins[1])
    if op is OP_AND2:
        return ins[0] & ins[1]
    if op is OP_OR2:
        return ins[0] | ins[1]
    if op is OP_XOR2:
        return ins[0] ^ ins[1]
    if op is OP_XNOR2:
        return full ^ ins[0] ^ ins[1]
    if op is OP_BUF:
        return ins[0]
    if op is OP_CONST0:
        return 0
    if op is OP_CONST1:
        return full
    result = 0
    for care, values in cubes:
        term = full
        var = 0
        while care:
            if care & 1:
                word = ins[var]
                term &= word if (values >> var) & 1 else full ^ word
            care >>= 1
            var += 1
        result |= term
    return result


def evaluate_cell_bits(cell, ins: Sequence[int], full: int) -> int:
    """Evaluate one cell on its fanins' pattern ints."""
    if cell.num_inputs != len(ins):
        raise NetlistError(
            f"cell {cell.name!r}: expected {cell.num_inputs} fanin values"
        )
    op, cubes = cell_op(cell)
    return eval_bits(op, cubes, ins, full)
