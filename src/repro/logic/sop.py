"""Cube and cover algebra for two-level (sum-of-products) logic.

A :class:`Cube` over ``nvars`` inputs stores two bitmasks: ``care`` marks the
variables that appear as literals, ``values`` their polarity (bit set =
positive literal; bits outside ``care`` are kept clear).  A :class:`Cover` is
an ordered list of cubes interpreted as their OR.

The algebra here (cofactors, tautology, containment, complement, consensus)
is what the espresso-style minimizer in :mod:`repro.synth.twolevel` and the
algebraic factoring code build on.  Recursions follow the classic unate
paradigm from Brayton et al.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import Optional

from repro.errors import LogicError
from repro.logic.truthtable import TruthTable


class Cube:
    """A product term: immutable pair of (care, values) bitmasks."""

    __slots__ = ("nvars", "care", "values")

    def __init__(self, nvars: int, care: int, values: int):
        if nvars < 0:
            raise LogicError("nvars must be non-negative")
        mask = (1 << nvars) - 1
        if care & ~mask:
            raise LogicError("care mask exceeds variable count")
        if values & ~care:
            raise LogicError("values must be a subset of care bits")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "care", care)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Cube is immutable")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def universe(cls, nvars: int) -> "Cube":
        """The cube with no literals (constant 1)."""
        return cls(nvars, 0, 0)

    @classmethod
    def from_string(cls, text: str) -> "Cube":
        """Parse PLA-style notation, e.g. ``"1-0"`` (var 0 first)."""
        care = values = 0
        for i, ch in enumerate(text.strip()):
            if ch == "1":
                care |= 1 << i
                values |= 1 << i
            elif ch == "0":
                care |= 1 << i
            elif ch in "-~2":
                continue
            else:
                raise LogicError(f"bad cube character {ch!r}")
        return cls(len(text.strip()), care, values)

    @classmethod
    def from_minterm(cls, nvars: int, minterm: int) -> "Cube":
        mask = (1 << nvars) - 1
        return cls(nvars, mask, minterm & mask)

    # ------------------------------------------------------------------
    # Literal access
    # ------------------------------------------------------------------
    def literal(self, var: int) -> Optional[int]:
        """Polarity of ``var`` in this cube: 1, 0, or None when absent."""
        if not (self.care >> var) & 1:
            return None
        return (self.values >> var) & 1

    def with_literal(self, var: int, polarity: Optional[int]) -> "Cube":
        """Copy with the literal on ``var`` set (or removed when None)."""
        bit = 1 << var
        if polarity is None:
            return Cube(self.nvars, self.care & ~bit, self.values & ~bit)
        values = self.values | bit if polarity else self.values & ~bit
        return Cube(self.nvars, self.care | bit, values)

    def num_literals(self) -> int:
        return self.care.bit_count()

    def literals(self) -> Iterator[tuple[int, int]]:
        """Yield (variable, polarity) for each literal."""
        care = self.care
        while care:
            bit = care & -care
            var = bit.bit_length() - 1
            yield var, (self.values >> var) & 1
            care ^= bit

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def contains(self, other: "Cube") -> bool:
        """True if ``other``'s onset is inside this cube's onset."""
        if self.care & ~other.care:
            return False
        return (other.values ^ self.values) & self.care == 0

    def contains_minterm(self, minterm: int) -> bool:
        return (minterm ^ self.values) & self.care == 0

    def intersect(self, other: "Cube") -> Optional["Cube"]:
        """Cube intersection, or None when empty."""
        conflict = self.care & other.care & (self.values ^ other.values)
        if conflict:
            return None
        return Cube(
            self.nvars,
            self.care | other.care,
            self.values | other.values,
        )

    def distance(self, other: "Cube") -> int:
        """Number of variables on which the cubes have opposite literals."""
        return (self.care & other.care & (self.values ^ other.values)).bit_count()

    def consensus(self, other: "Cube") -> Optional["Cube"]:
        """Consensus cube when the distance is exactly 1, else None."""
        conflict = self.care & other.care & (self.values ^ other.values)
        if conflict.bit_count() != 1:
            return None
        care = (self.care | other.care) & ~conflict
        values = (self.values | other.values) & care
        return Cube(self.nvars, care, values)

    def supercube(self, other: "Cube") -> "Cube":
        """Smallest cube containing both."""
        care = self.care & other.care & ~(self.values ^ other.values)
        return Cube(self.nvars, care, self.values & care)

    def cofactor(self, var: int, value: int) -> Optional["Cube"]:
        """Shannon cofactor; None when the cube vanishes."""
        lit = self.literal(var)
        if lit is not None and lit != value:
            return None
        return self.with_literal(var, None)

    def to_truthtable(self) -> TruthTable:
        bits = 0
        for minterm in range(1 << self.nvars):
            if self.contains_minterm(minterm):
                bits |= 1 << minterm
        return TruthTable(self.nvars, bits)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cube)
            and other.nvars == self.nvars
            and other.care == self.care
            and other.values == self.values
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.care, self.values))

    def __str__(self) -> str:
        chars = []
        for var in range(self.nvars):
            lit = self.literal(var)
            chars.append("-" if lit is None else str(lit))
        return "".join(chars)

    def __repr__(self) -> str:
        return f"Cube({str(self)!r})"


class Cover:
    """An ordered list of cubes interpreted as a sum of products."""

    __slots__ = ("nvars", "cubes")

    def __init__(self, nvars: int, cubes: Iterable[Cube] = ()):
        self.nvars = nvars
        self.cubes: list[Cube] = []
        for cube in cubes:
            if cube.nvars != nvars:
                raise LogicError("cube width mismatch in cover")
            self.cubes.append(cube)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> "Cover":
        cubes = [Cube.from_string(row) for row in rows]
        if not cubes:
            raise LogicError("cannot infer width of an empty cover")
        return cls(cubes[0].nvars, cubes)

    @classmethod
    def from_truthtable(cls, table: TruthTable) -> "Cover":
        """Minterm-canonical cover of a truth table."""
        cubes = [
            Cube.from_minterm(table.nvars, m)
            for m in range(table.nrows)
            if table.value(m)
        ]
        return cls(table.nvars, cubes)

    @classmethod
    def constant(cls, nvars: int, value: bool) -> "Cover":
        return cls(nvars, [Cube.universe(nvars)] if value else [])

    def copy(self) -> "Cover":
        return Cover(self.nvars, list(self.cubes))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    def num_literals(self) -> int:
        return sum(cube.num_literals() for cube in self.cubes)

    def contains_minterm(self, minterm: int) -> bool:
        return any(cube.contains_minterm(minterm) for cube in self.cubes)

    def evaluate(self, inputs: Sequence[int]) -> int:
        minterm = 0
        for var, bit in enumerate(inputs):
            if bit:
                minterm |= 1 << var
        return int(self.contains_minterm(minterm))

    def to_truthtable(self) -> TruthTable:
        bits = 0
        for cube in self.cubes:
            bits |= cube.to_truthtable().bits
        return TruthTable(self.nvars, bits)

    def is_empty(self) -> bool:
        return not self.cubes

    # ------------------------------------------------------------------
    # Cofactors and tautology
    # ------------------------------------------------------------------
    def cofactor(self, var: int, value: int) -> "Cover":
        cubes = []
        for cube in self.cubes:
            cf = cube.cofactor(var, value)
            if cf is not None:
                cubes.append(cf)
        return Cover(self.nvars, cubes)

    def cube_cofactor(self, cube: Cube) -> "Cover":
        """Cofactor with respect to every literal of ``cube``."""
        result = self
        for var, polarity in cube.literals():
            result = result.cofactor(var, polarity)
        return result

    def _most_binate_variable(self) -> Optional[int]:
        """Splitting variable: appears in both polarities most often."""
        pos = [0] * self.nvars
        neg = [0] * self.nvars
        for cube in self.cubes:
            for var, polarity in cube.literals():
                if polarity:
                    pos[var] += 1
                else:
                    neg[var] += 1
        best_var, best_score = None, -1
        for var in range(self.nvars):
            if pos[var] and neg[var]:
                score = pos[var] + neg[var]
                if score > best_score:
                    best_var, best_score = var, score
        if best_var is not None:
            return best_var
        # Unate cover: pick any variable that still appears.
        for var in range(self.nvars):
            if pos[var] or neg[var]:
                return var
        return None

    def is_tautology(self) -> bool:
        """True if the cover equals constant 1 (unate recursion)."""
        if any(cube.care == 0 for cube in self.cubes):
            return True
        if not self.cubes:
            return False
        var = self._most_binate_variable()
        if var is None:
            # No literals anywhere and no universal cube: impossible branch,
            # kept for safety.
            return False
        # Unate reduction: a variable appearing in only one polarity cannot
        # make the cover a tautology through those cubes alone, but the
        # standard recursion still terminates quickly; go straight to Shannon.
        return self.cofactor(var, 0).is_tautology() and self.cofactor(
            var, 1
        ).is_tautology()

    def covers_cube(self, cube: Cube) -> bool:
        """True if the cover contains the whole onset of ``cube``."""
        return self.cube_cofactor(cube).is_tautology()

    def covers(self, other: "Cover") -> bool:
        return all(self.covers_cube(cube) for cube in other.cubes)

    def equivalent(self, other: "Cover") -> bool:
        return self.covers(other) and other.covers(self)

    # ------------------------------------------------------------------
    # Complement (Shannon recursion with cube-list merge)
    # ------------------------------------------------------------------
    def complement(self) -> "Cover":
        if not self.cubes:
            return Cover.constant(self.nvars, True)
        if any(cube.care == 0 for cube in self.cubes):
            return Cover.constant(self.nvars, False)
        if len(self.cubes) == 1:
            # De Morgan on a single cube.
            cubes = []
            for var, polarity in self.cubes[0].literals():
                cubes.append(
                    Cube.universe(self.nvars).with_literal(var, 1 - polarity)
                )
            return Cover(self.nvars, cubes)
        var = self._most_binate_variable()
        if var is None:
            return Cover.constant(self.nvars, False)
        neg = self.cofactor(var, 0).complement()
        pos = self.cofactor(var, 1).complement()
        cubes = []
        for cube in neg.cubes:
            merged = cube.with_literal(var, 0)
            cubes.append(merged)
        for cube in pos.cubes:
            cubes.append(cube.with_literal(var, 1))
        result = Cover(self.nvars, cubes)
        result.remove_contained()
        return result

    # ------------------------------------------------------------------
    # Simplification helpers
    # ------------------------------------------------------------------
    def remove_contained(self) -> None:
        """Drop cubes single-cube-contained in another cube (in place)."""
        kept: list[Cube] = []
        for cube in sorted(self.cubes, key=lambda c: c.num_literals()):
            if not any(other.contains(cube) for other in kept):
                kept.append(cube)
        self.cubes = kept

    def merge_distance_one(self) -> bool:
        """One pass of distance-1 cube merging; True if anything merged."""
        changed = False
        i = 0
        while i < len(self.cubes):
            j = i + 1
            merged = False
            while j < len(self.cubes):
                a, b = self.cubes[i], self.cubes[j]
                if a.care == b.care and a.distance(b) == 1:
                    diff = a.values ^ b.values
                    combined = Cube(a.nvars, a.care & ~diff, a.values & ~diff)
                    self.cubes[i] = combined
                    del self.cubes[j]
                    changed = merged = True
                else:
                    j += 1
            if not merged:
                i += 1
        return changed

    def __repr__(self) -> str:
        return f"Cover({self.nvars} vars, {len(self.cubes)} cubes)"
