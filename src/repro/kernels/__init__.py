"""Packed hot-path kernels.

Everything in this package operates on packed pattern sets instead of
one Python value per pattern:

- :mod:`repro.kernels.words` — the simulation word size (one constant),
  pattern-count validation, and the popcount ladder
  (``numpy.bitwise_count`` → ``int.bit_count`` → 16-bit LUT),
- :mod:`repro.kernels.bits` — one Python int per signal for the per-gate
  paths: the int ↔ word conversions (fixed little-endian word order),
  per-cell op codes and the int cell evaluator,
- :mod:`repro.kernels.packed` — :class:`~repro.kernels.packed.PackedCircuit`,
  a topologically-ordered view of a netlist as flat per-gate lists (op
  codes, fanin index tuples, cubes, fanout lists) with the per-gate int
  kernels: full simulation and the cone-local overlay and flip-mask
  walks.

The packed view is cached per netlist and self-validates against the
netlist's structural state, so callers never hold a stale view; see
:func:`repro.kernels.packed.packed_view`.
"""

from repro.kernels.words import (
    ALL_ONES,
    WORD_BITS,
    WORD_DTYPE,
    popcount,
    popcount_lastaxis,
    validate_num_patterns,
)
from repro.kernels.packed import PackedCircuit, packed_view

__all__ = [
    "ALL_ONES",
    "WORD_BITS",
    "WORD_DTYPE",
    "PackedCircuit",
    "packed_view",
    "popcount",
    "popcount_lastaxis",
    "validate_num_patterns",
]
