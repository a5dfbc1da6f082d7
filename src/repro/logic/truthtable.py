"""Dense truth tables for Boolean functions of small support.

A :class:`TruthTable` stores the function of ``n`` ordered input variables as
a ``2**n``-bit integer: bit ``i`` is the function value on the input minterm
whose binary encoding is ``i`` (variable 0 is the least significant bit of the
minterm index).  Python's arbitrary-precision integers make the bitwise
operators exact for any ``n``; the class caps ``n`` at :data:`MAX_VARS` to
keep memory and matching costs sane — that is plenty for library cells and
mapper cut functions.

Truth tables are immutable value objects: operators return new instances and
instances hash/compare by ``(nvars, bits)``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import permutations

from repro.errors import LogicError

#: Largest supported number of input variables.
MAX_VARS = 16


def _full_mask(nvars: int) -> int:
    return (1 << (1 << nvars)) - 1


def _var_pattern(var: int, nvars: int) -> int:
    """Truth table bits of the projection function ``x_var`` on ``nvars`` vars."""
    block = 1 << var
    pattern = ((1 << block) - 1) << block  # `block` zeros then `block` ones
    period = block * 2
    bits = 0
    for offset in range(0, 1 << nvars, period):
        bits |= pattern << offset
    return bits


def permutation_rows(mapping: Sequence[int]) -> tuple[int, ...]:
    """Row sources of an input permutation (``mapping[new] = old``).

    Entry ``m`` is the minterm of the original function that row ``m`` of
    :meth:`TruthTable.permute` reads: bit ``new`` of ``m`` lands on bit
    ``mapping[new]``.
    """
    rows = []
    for minterm in range(1 << len(mapping)):
        src = 0
        for new, old in enumerate(mapping):
            if (minterm >> new) & 1:
                src |= 1 << old
        rows.append(src)
    return tuple(rows)


class TruthTable:
    """Immutable truth table of a Boolean function on ``nvars`` inputs."""

    __slots__ = ("nvars", "bits")

    def __init__(self, nvars: int, bits: int):
        if not 0 <= nvars <= MAX_VARS:
            raise LogicError(f"nvars must be in [0, {MAX_VARS}], got {nvars}")
        if bits < 0:
            raise LogicError("truth table bits must be non-negative")
        mask = _full_mask(nvars)
        if bits > mask:
            raise LogicError(
                f"truth table bits 0x{bits:x} exceed {1 << nvars} rows"
            )
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("TruthTable is immutable")

    def __reduce__(self):
        # __slots__ + the __setattr__ guard break pickle's default state
        # restore; rebuild through the constructor instead (needed to ship
        # a Library to multiprocessing pool workers).
        return (TruthTable, (self.nvars, self.bits))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, value: bool, nvars: int = 0) -> "TruthTable":
        """The constant-``value`` function on ``nvars`` inputs."""
        return cls(nvars, _full_mask(nvars) if value else 0)

    @classmethod
    def variable(cls, var: int, nvars: int) -> "TruthTable":
        """The projection function returning input ``var``."""
        if not 0 <= var < nvars:
            raise LogicError(f"variable index {var} out of range for {nvars} vars")
        return cls(nvars, _var_pattern(var, nvars))

    @classmethod
    def from_rows(cls, rows: Sequence[int]) -> "TruthTable":
        """Build from an explicit output column (row *i* = minterm *i*)."""
        n = len(rows)
        if n == 0 or n & (n - 1):
            raise LogicError(f"row count must be a power of two, got {n}")
        nvars = n.bit_length() - 1
        bits = 0
        for i, value in enumerate(rows):
            if value not in (0, 1, True, False):
                raise LogicError(f"row {i} is not Boolean: {value!r}")
            if value:
                bits |= 1 << i
        return cls(nvars, bits)

    @classmethod
    def from_function(cls, func, nvars: int) -> "TruthTable":
        """Tabulate ``func(inputs: tuple[int, ...]) -> bool`` on ``nvars`` vars."""
        bits = 0
        for minterm in range(1 << nvars):
            inputs = tuple((minterm >> v) & 1 for v in range(nvars))
            if func(inputs):
                bits |= 1 << minterm
        return cls(nvars, bits)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def nrows(self) -> int:
        return 1 << self.nvars

    def value(self, minterm: int) -> int:
        """Function value on the given minterm index."""
        if not 0 <= minterm < self.nrows:
            raise LogicError(f"minterm {minterm} out of range")
        return (self.bits >> minterm) & 1

    def evaluate(self, inputs: Sequence[int]) -> int:
        """Function value on an explicit input assignment."""
        if len(inputs) != self.nvars:
            raise LogicError(
                f"expected {self.nvars} inputs, got {len(inputs)}"
            )
        minterm = 0
        for var, bit in enumerate(inputs):
            if bit:
                minterm |= 1 << var
        return (self.bits >> minterm) & 1

    def count_ones(self) -> int:
        """Number of minterms on which the function is 1."""
        return self.bits.bit_count()

    def is_constant(self) -> bool:
        return self.bits in (0, _full_mask(self.nvars))

    def onset_probability(self, input_probs: Sequence[float] | None = None) -> float:
        """Probability that the function is 1.

        With no argument, inputs are equiprobable and the result is
        ``count_ones() / 2**nvars``.  Otherwise ``input_probs[v]`` is the
        probability that input ``v`` is 1 and inputs are independent.
        """
        if input_probs is None:
            return self.count_ones() / self.nrows
        if len(input_probs) != self.nvars:
            raise LogicError("one probability per input variable required")
        total = 0.0
        for minterm in range(self.nrows):
            if not (self.bits >> minterm) & 1:
                continue
            p = 1.0
            for var, pv in enumerate(input_probs):
                p *= pv if (minterm >> var) & 1 else 1.0 - pv
            total += p
        return total

    def depends_on(self, var: int) -> bool:
        """True if the function actually depends on input ``var``."""
        return self.cofactor(var, 0).bits != self.cofactor(var, 1).bits

    def support(self) -> tuple[int, ...]:
        """Indices of the variables the function depends on."""
        return tuple(v for v in range(self.nvars) if self.depends_on(v))

    # ------------------------------------------------------------------
    # Boolean algebra
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "TruthTable") -> None:
        if not isinstance(other, TruthTable):
            raise LogicError(f"expected TruthTable, got {type(other).__name__}")
        if other.nvars != self.nvars:
            raise LogicError(
                f"support mismatch: {self.nvars} vs {other.nvars} variables"
            )

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self.nvars, self.bits & other.bits)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self.nvars, self.bits | other.bits)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self.nvars, self.bits ^ other.bits)

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.nvars, self.bits ^ _full_mask(self.nvars))

    def implies(self, other: "TruthTable") -> bool:
        """True if ``self <= other`` pointwise (onset containment)."""
        self._check_compatible(other)
        return self.bits & ~other.bits == 0

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def cofactor(self, var: int, value: int) -> "TruthTable":
        """Shannon cofactor with input ``var`` fixed to ``value``.

        The result keeps the same variable count (the fixed variable becomes
        vacuous), which keeps downstream code free of index remapping.
        """
        if not 0 <= var < self.nvars:
            raise LogicError(f"variable index {var} out of range")
        pattern = _var_pattern(var, self.nvars)
        block = 1 << var
        if value:
            half = self.bits & pattern
            result = half | (half >> block)
        else:
            half = self.bits & ~pattern & _full_mask(self.nvars)
            result = half | (half << block)
        return TruthTable(self.nvars, result & _full_mask(self.nvars))

    def compose(self, tables: Sequence["TruthTable"]) -> "TruthTable":
        """Substitute a function for each input variable.

        ``tables[v]`` (all on a common support of ``m`` variables) replaces
        input ``v``; the result is a function on those ``m`` variables.
        """
        if len(tables) != self.nvars:
            raise LogicError("one replacement table per input required")
        if self.nvars == 0:
            return TruthTable(0, self.bits)
        m = tables[0].nvars
        for t in tables:
            if t.nvars != m:
                raise LogicError("replacement tables must share a support")
        result = 0
        full = _full_mask(m)
        for minterm in range(self.nrows):
            if not (self.bits >> minterm) & 1:
                continue
            rows = full
            for var, t in enumerate(tables):
                rows &= t.bits if (minterm >> var) & 1 else t.bits ^ full
            result |= rows
        return TruthTable(m, result)

    def permute(self, mapping: Sequence[int]) -> "TruthTable":
        """Apply an input permutation.

        ``mapping[new] = old``: input position ``new`` of the result reads the
        variable that was at position ``old`` in ``self``.
        """
        if sorted(mapping) != list(range(self.nvars)):
            raise LogicError(f"not a permutation of {self.nvars} vars: {mapping}")
        bits = 0
        for minterm, src in enumerate(permutation_rows(mapping)):
            if (self.bits >> src) & 1:
                bits |= 1 << minterm
        return TruthTable(self.nvars, bits)

    def extend(self, nvars: int, placement: Sequence[int] | None = None) -> "TruthTable":
        """Re-express on a larger support.

        ``placement[old] = new`` maps each current variable to its position in
        the wider support (identity when omitted).
        """
        if nvars < self.nvars:
            raise LogicError("extend target must not shrink the support")
        if placement is None:
            placement = list(range(self.nvars))
        if len(placement) != self.nvars or len(set(placement)) != self.nvars:
            raise LogicError("placement must map each variable once")
        if any(not 0 <= p < nvars for p in placement):
            raise LogicError("placement index out of range")
        tables = [TruthTable.variable(placement[v], nvars) for v in range(self.nvars)]
        return self.compose(tables)

    def shrink(self) -> tuple["TruthTable", tuple[int, ...]]:
        """Drop vacuous variables; returns (table, kept original indices)."""
        kept = self.support()
        table = self
        # Permute the live variables to the front, then truncate.
        order = list(kept) + [v for v in range(self.nvars) if v not in kept]
        inverse = [0] * self.nvars
        for new, old in enumerate(order):
            inverse[new] = old
        table = table.permute(inverse)
        bits = table.bits & _full_mask(len(kept))
        return TruthTable(len(kept), bits), kept

    # ------------------------------------------------------------------
    # Canonicalisation (used by the technology mapper)
    # ------------------------------------------------------------------
    def p_canonical(self) -> tuple["TruthTable", tuple[int, ...]]:
        """Smallest table over all input permutations.

        Returns ``(canon, mapping)`` where ``mapping`` is the permutation (in
        :meth:`permute` convention) that produced it.  Exhaustive over
        ``nvars!`` permutations — intended for mapper-sized supports.
        """
        best_bits = None
        best_perm: tuple[int, ...] = tuple(range(self.nvars))
        for perm in permutations(range(self.nvars)):
            candidate = self.permute(perm)
            if best_bits is None or candidate.bits < best_bits:
                best_bits = candidate.bits
                best_perm = perm
        return TruthTable(self.nvars, best_bits or 0), best_perm

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruthTable)
            and other.nvars == self.nvars
            and other.bits == self.bits
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.bits))

    def __repr__(self) -> str:
        width = max(1, (self.nrows + 3) // 4)
        return f"TruthTable({self.nvars}, 0x{self.bits:0{width}x})"


def all_minterms(nvars: int) -> Iterable[tuple[int, ...]]:
    """Yield every input assignment on ``nvars`` variables in minterm order."""
    for minterm in range(1 << nvars):
        yield tuple((minterm >> v) & 1 for v in range(nvars))
