"""Gate and library models.

A :class:`Cell` is a combinational gate with one output.  Its logic function
is stored both as a genlib expression AST and as a
:class:`~repro.logic.truthtable.TruthTable` over the cell's ordered pin list.
Electrical data follows the paper's linear model:

- every input pin has a capacitive ``load`` it presents to its driver,
- the gate delay from pin *i* is ``tau[i] + R[i] * C_out`` where ``C_out`` is
  the capacitance driven by the gate output.

A :class:`Library` is a named collection of cells with convenience lookups
used by the mapper (cells by input count, exact-function and permutation
indexes) and by the optimizer (cheapest 2-input gate of a given function).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import permutations

from repro.errors import LibraryError
from repro.logic.expr import Expr, parse_expression
from repro.logic.truthtable import TruthTable, permutation_rows


@dataclass(frozen=True)
class Pin:
    """One input pin of a cell."""

    name: str
    load: float  # input capacitance presented to the driving signal
    max_load: float = 999.0  # drive limit of the *driving* gate (genlib field)
    tau: float = 1.0  # intrinsic (block) delay through this pin
    resistance: float = 0.2  # load-dependent delay slope (R in tau + R*C)

    def __post_init__(self):
        if self.load < 0:
            raise LibraryError(f"pin {self.name!r}: negative load")
        if self.tau < 0 or self.resistance < 0:
            raise LibraryError(f"pin {self.name!r}: negative delay parameter")


class Cell:
    """A single-output combinational library gate."""

    def __init__(
        self,
        name: str,
        area: float,
        output: str,
        expression: Expr | str,
        pins: Sequence[Pin],
    ):
        if area < 0:
            raise LibraryError(f"cell {name!r}: negative area")
        self.name = name
        self.area = float(area)
        self.output = output
        if isinstance(expression, str):
            expression = parse_expression(expression)
        self.expression = expression
        self.pins: tuple[Pin, ...] = tuple(pins)
        self.pin_names: tuple[str, ...] = tuple(p.name for p in self.pins)
        if len(set(self.pin_names)) != len(self.pin_names):
            raise LibraryError(f"cell {name!r}: duplicate pin names")
        used = set(expression.variables())
        declared = set(self.pin_names)
        if used - declared:
            raise LibraryError(
                f"cell {name!r}: expression uses undeclared pins {sorted(used - declared)}"
            )
        self.function: TruthTable = expression.to_truthtable(self.pin_names)

    # ------------------------------------------------------------------
    @property
    def num_inputs(self) -> int:
        return len(self.pins)

    def pin_index(self, name: str) -> int:
        try:
            return self.pin_names.index(name)
        except ValueError:
            raise LibraryError(f"cell {self.name!r} has no pin {name!r}") from None

    def pin(self, index_or_name) -> Pin:
        if isinstance(index_or_name, str):
            return self.pins[self.pin_index(index_or_name)]
        return self.pins[index_or_name]

    def total_input_load(self) -> float:
        return sum(p.load for p in self.pins)

    def is_constant(self) -> bool:
        return self.num_inputs == 0

    def is_inverter(self) -> bool:
        return self.num_inputs == 1 and self.function.bits == 0b01

    def is_buffer(self) -> bool:
        return self.num_inputs == 1 and self.function.bits == 0b10

    def evaluate(self, inputs: Sequence[int]) -> int:
        return self.function.evaluate(inputs)

    def __repr__(self) -> str:
        return f"Cell({self.name!r}, area={self.area}, f={self.expression})"


@dataclass
class Library:
    """A named collection of cells."""

    name: str
    cells: dict[str, Cell] = field(default_factory=dict)

    def add(self, cell: Cell) -> None:
        if cell.name in self.cells:
            raise LibraryError(f"duplicate cell {cell.name!r}")
        self.cells[cell.name] = cell
        self._invalidate_caches()

    def _invalidate_caches(self) -> None:
        self._inverter_cache = None
        self._npn_index_cache = None
        self._function_index_cache: dict[int | None, dict] = {}
        self._match_index_cache: dict[int, dict] = {}
        self._insertion_cache = None

    def __contains__(self, name: str) -> bool:
        return name in self.cells

    def __getitem__(self, name: str) -> Cell:
        try:
            return self.cells[name]
        except KeyError:
            raise LibraryError(f"library {self.name!r} has no cell {name!r}") from None

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells.values())

    def __len__(self) -> int:
        return len(self.cells)

    # ------------------------------------------------------------------
    # Lookups used across the system
    # ------------------------------------------------------------------
    def cells_with_inputs(self, n: int) -> list[Cell]:
        return [c for c in self.cells.values() if c.num_inputs == n]

    def inverter(self) -> Cell:
        """The smallest inverter; every usable library must have one."""
        cached = getattr(self, "_inverter_cache", None)
        if cached is not None:
            return cached
        candidates = [c for c in self.cells.values() if c.is_inverter()]
        if not candidates:
            raise LibraryError(f"library {self.name!r} has no inverter")
        best = min(candidates, key=lambda c: c.area)
        self._inverter_cache = best
        return best

    def buffer(self) -> Cell | None:
        candidates = [c for c in self.cells.values() if c.is_buffer()]
        return min(candidates, key=lambda c: c.area) if candidates else None

    def constant(self, value: bool) -> Cell | None:
        """A tie cell driving the given constant, if present."""
        target = TruthTable.constant(value, 0)
        for cell in self.cells.values():
            if cell.is_constant() and cell.function == target:
                return cell
        return None

    def find_two_input(self, function: TruthTable) -> Cell | None:
        """Cheapest 2-input cell computing the function, pin order as given.

        Used by OS3/IS3 to realise the new 2-input gate; per the paper, only
        gates actually in the library may be inserted.
        """
        if function.nvars != 2:
            raise LibraryError("find_two_input expects a 2-variable function")
        best: Cell | None = None
        for cell in self.cells_with_inputs(2):
            if cell.function == function and (best is None or cell.area < best.area):
                best = cell
        return best

    def matchable_cells(self, max_inputs: int | None = None) -> list[Cell]:
        """Cells eligible for technology mapping, sorted by area."""
        cells = [
            c
            for c in self.cells.values()
            if c.num_inputs > 0 and not c.function.is_constant()
        ]
        if max_inputs is not None:
            cells = [c for c in cells if c.num_inputs <= max_inputs]
        return sorted(cells, key=lambda c: (c.area, c.name))

    # ------------------------------------------------------------------
    # Capability queries (library-parametric backends)
    # ------------------------------------------------------------------
    def npn_index(self) -> dict[tuple[int, int], list[Cell]]:
        """Matchable cells grouped by NPN class.

        Keys are ``(num_inputs, canonical bits)`` from
        :func:`repro.library.npn.npn_key`; each bucket is sorted by
        ``(area, name)`` so "the cheapest cell in this class" is always
        ``bucket[0]``.  Cells wider than the NPN canonicaliser supports
        are left out — exhaustive canonicalisation past 6 inputs is not
        worth the factorial blow-up for a capability summary.
        """
        cached = getattr(self, "_npn_index_cache", None)
        if cached is not None:
            return cached
        from repro.library.npn import MAX_NPN_VARS, npn_key

        index: dict[tuple[int, int], list[Cell]] = {}
        for cell in self.matchable_cells():
            if cell.num_inputs > MAX_NPN_VARS:
                continue
            index.setdefault(npn_key(cell.function), []).append(cell)
        for bucket in index.values():
            bucket.sort(key=lambda c: (c.area, c.name))
        self._npn_index_cache = index
        return index

    def npn_cells(self, function: TruthTable) -> list[Cell]:
        """Cells NPN-equivalent to ``function``, cheapest first."""
        from repro.library.npn import npn_key

        return list(self.npn_index().get(npn_key(function), ()))

    def function_index(
        self, max_inputs: int | None = None
    ) -> dict[tuple[int, int], Cell]:
        """Cheapest cell per exact function ``(nvars, bits)``.

        Ties on area keep the first cell in :meth:`matchable_cells`
        order (area then name) — the technology mapper's historical
        tie-break, now shared so every backend resolves "which cell
        implements this function" identically.
        """
        caches = getattr(self, "_function_index_cache", None)
        if caches is None:
            caches = {}
            self._function_index_cache = caches
        cached = caches.get(max_inputs)
        if cached is not None:
            return cached
        index: dict[tuple[int, int], Cell] = {}
        for cell in self.matchable_cells(max_inputs=max_inputs):
            key = (cell.function.nvars, cell.function.bits)
            existing = index.get(key)
            if existing is None or cell.area < existing.area:
                index[key] = cell
        caches[max_inputs] = index
        return index

    def match_index(
        self, max_inputs: int
    ) -> dict[tuple[int, int], tuple[tuple[Cell, tuple[int, ...], bool], ...]]:
        """Every cell match of a function, over all input permutations.

        Maps ``(nvars, bits)`` to ``(cell, perm, negated)`` triples: the
        :meth:`function_index` cell equals ``TruthTable(nvars,
        bits).permute(perm)``, complemented when ``negated``.  Triples are
        in :func:`itertools.permutations` order of ``perm``, un-negated
        first.  Constant functions and functions with a vacuous input
        have no key: a smaller cut covers them.  Exhaustive over
        ``nvars!`` permutations per cell, so meant for mapper-sized
        widths.
        """
        caches = getattr(self, "_match_index_cache", None)
        if caches is None:
            caches = {}
            self._match_index_cache = caches
        cached = caches.get(max_inputs)
        if cached is not None:
            return cached
        ranked: dict[tuple[int, int], list] = {}
        rows_by_arity: dict[int, list] = {}
        for (nvars, bits), cell in self.function_index(max_inputs).items():
            if len(cell.function.support()) != nvars:
                continue
            perm_rows = rows_by_arity.get(nvars)
            if perm_rows is None:
                perm_rows = [
                    (perm, permutation_rows(perm))
                    for perm in permutations(range(nvars))
                ]
                rows_by_arity[nvars] = perm_rows
            full = TruthTable.constant(True, nvars).bits
            for rank, (perm, rows) in enumerate(perm_rows):
                # Row m of the cell's table is row rows[m] of the
                # function that permute(perm) carries onto it.
                source = 0
                for minterm, row in enumerate(rows):
                    if bits >> minterm & 1:
                        source |= 1 << row
                for negated, key_bits in ((False, source), (True, source ^ full)):
                    ranked.setdefault((nvars, key_bits), []).append(
                        (rank, negated, cell, perm)
                    )
        index = {
            key: tuple(
                (cell, perm, negated)
                for _, negated, cell, perm in sorted(entries, key=lambda e: e[:2])
            )
            for key, entries in ranked.items()
        }
        caches[max_inputs] = index
        return index

    def insertion_cells(self) -> list[Cell]:
        """2-input cells eligible as OS3/IS3 insertion gates.

        One cell per distinct exact function: the cheapest, with ties on
        area resolved by library declaration order (a stable sort, so
        the built-in genlib keeps its historical candidate ordering).
        Degenerate 2-input cells — constants or functions that ignore an
        input — are excluded; inserting one would be a buffer or tie in
        disguise, which OS2/sweep already cover.
        """
        cached = getattr(self, "_insertion_cache", None)
        if cached is not None:
            return list(cached)
        by_function: dict[int, Cell] = {}
        for cell in sorted(self.cells_with_inputs(2), key=lambda c: c.area):
            if cell.function.is_constant() or len(cell.function.support()) < 2:
                continue
            by_function.setdefault(cell.function.bits, cell)
        result = list(by_function.values())
        self._insertion_cache = tuple(result)
        return result

    def validate(self) -> None:
        """Check the invariants the rest of the system relies on.

        Beyond the inverter, the mapper needs a 2-input cell in the NPN
        class of AND2 whose polarity it can actually bridge: matching
        has no input-phase negation, so the cell must be AND2, OR2 (an
        AND of complemented inputs is an OR output-inverted), or their
        output complements NAND2/NOR2 — exactly the AND2 NPN class.
        """
        self.inverter()
        from repro.library.npn import npn_key

        and2_key = npn_key(TruthTable(2, 0b1000))
        usable = {0b1000, 0b1110, 0b0111, 0b0001}
        have_and_class = any(
            cell.function.bits in usable
            for cell in self.npn_index().get(and2_key, ())
        )
        if not have_and_class:
            raise LibraryError(
                f"library {self.name!r} needs a 2-input AND/OR/NAND/NOR "
                f"for mapping"
            )

    def __repr__(self) -> str:
        return f"Library({self.name!r}, {len(self.cells)} cells)"


def build_library(name: str, cell_specs: Iterable[Cell]) -> Library:
    """Assemble and validate a library from cells."""
    library = Library(name)
    for cell in cell_specs:
        library.add(cell)
    library.validate()
    return library
