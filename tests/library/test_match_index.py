"""``Library.match_index`` against a brute-force permutation sweep."""

import random
from itertools import permutations
from pathlib import Path

import pytest

from repro.library.cell import Cell, Library, Pin
from repro.library.genlib import parse_genlib, parse_genlib_file
from repro.library.standard import STANDARD_GENLIB
from repro.logic.truthtable import TruthTable

NANDNOR = Path(__file__).resolve().parents[2] / "benchmarks" / "genlib" / "nandnor.genlib"

#: The mapper's default cut width, and the widest the sample below covers.
K = 4


def reference_matches(library, max_inputs, nvars, bits):
    """Every ``(cell, perm, negated)`` found by permuting the function.

    The sweep the mapper ran per new cut function before the index:
    each permutation in ``itertools.permutations`` order, looked up
    exactly and complemented in ``function_index``.
    """
    base = TruthTable(nvars, bits)
    if base.is_constant() or len(base.support()) != nvars:
        return ()
    index = library.function_index(max_inputs=max_inputs)
    found = []
    for perm in permutations(range(nvars)):
        table = base.permute(perm)
        for negated, candidate in ((False, table), (True, ~table)):
            cell = index.get((nvars, candidate.bits))
            if cell is not None:
                found.append((cell, perm, negated))
    return tuple(found)


def assert_index_is_the_sweep(library, max_inputs=K, samples=2000):
    index = library.match_index(max_inputs)
    for nvars in range(1, 4):
        for bits in range(1 << (1 << nvars)):
            expected = reference_matches(library, max_inputs, nvars, bits)
            assert index.get((nvars, bits), ()) == expected, (nvars, bits)
    for (nvars, bits), entries in index.items():
        assert entries, (nvars, bits)
        assert entries == reference_matches(library, max_inputs, nvars, bits)
    rng = random.Random(2024)
    for _ in range(samples):
        bits = rng.getrandbits(1 << K)
        expected = reference_matches(library, max_inputs, K, bits)
        assert index.get((K, bits), ()) == expected, bits


def pin(name):
    return Pin(name, load=1.0)


def odd_library():
    """INV, NAND2, an asymmetric ``a*!b`` and a cell ignoring one input."""
    library = Library("odd")
    library.add(Cell("inv", 1.0, "O", "!a", [pin("a")]))
    library.add(Cell("nand2", 2.0, "O", "!(a*b)", [pin("a"), pin("b")]))
    library.add(Cell("andn2", 2.0, "O", "a*!b", [pin("a"), pin("b")]))
    library.add(
        Cell("and2x", 3.0, "O", "a*c", [pin("a"), pin("b"), pin("c")])
    )
    library.add(
        Cell("mux", 4.0, "O", "a*!s+b*s", [pin("a"), pin("b"), pin("s")])
    )
    library.validate()
    return library


class TestAgainstTheSweep:
    def test_builtin_library(self):
        assert_index_is_the_sweep(parse_genlib(STANDARD_GENLIB, name="std"))

    def test_nandnor_library(self):
        assert_index_is_the_sweep(parse_genlib_file(NANDNOR))

    def test_asymmetric_and_vacuous_cells(self):
        library = odd_library()
        assert_index_is_the_sweep(library)
        cells = {
            cell.name
            for entries in library.match_index(K).values()
            for cell, _, _ in entries
        }
        assert "and2x" not in cells
        # a*!b and its mirror b*!a are the same cell over two orders.
        assert library.match_index(K)[(2, 0b0010)] == (
            (library["andn2"], (0, 1), False),
        )
        assert library.match_index(K)[(2, 0b0100)] == (
            (library["andn2"], (1, 0), False),
        )

    def test_narrower_cut_width_drops_wider_cells(self):
        library = parse_genlib(STANDARD_GENLIB, name="std")
        index = library.match_index(2)
        assert index and all(nvars <= 2 for nvars, _ in index)
        assert_index_is_the_sweep(library, max_inputs=2, samples=0)


class TestCaching:
    def test_cached_per_width(self):
        library = parse_genlib(STANDARD_GENLIB, name="std")
        assert library.match_index(K) is library.match_index(K)
        assert library.match_index(3) is not library.match_index(K)

    def test_add_rebuilds_the_index(self):
        library = odd_library()
        before = library.match_index(K)
        assert (3, 0b11111110) not in before  # no OR3 yet
        library.add(
            Cell("or3", 1.5, "O", "a+b+c", [pin("a"), pin("b"), pin("c")])
        )
        after = library.match_index(K)
        assert after is not before
        assert after[(3, 0b11111110)][0] == (library["or3"], (0, 1, 2), False)
        assert_index_is_the_sweep(library, samples=200)
