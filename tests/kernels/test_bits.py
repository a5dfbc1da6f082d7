"""Parity of the Python-int pattern kernels against the numpy words.

A signal's patterns are one int whose bit ``64*w + b`` is bit *b* of
word *w*.  These tests pin that bit order with an explicitly
little-endian word dtype, the int cell evaluator against the numpy
reference :func:`evaluate_cell` for every cell of both bundled
libraries, inversion inside the pattern width, and the pattern a
simulation counterexample is read from.
"""

from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.bits import (
    evaluate_cell_bits,
    first_pattern,
    full_mask,
    int_to_words,
    ints_to_matrix,
    matrix_to_ints,
    words_to_int,
)
from repro.library.genlib import parse_genlib_file
from repro.library.standard import standard_library
from repro.netlist.simulate import evaluate_cell
from repro.transform.permissible import NOT_PERMISSIBLE, TriageChecker
from repro.transform.substitution import OS2, Substitution
from tests.conftest import make_random_netlist

ROOT = Path(__file__).resolve().parents[2]
LIBRARIES = {
    "standard": standard_library(),
    "nandnor": parse_genlib_file(ROOT / "benchmarks" / "genlib" / "nandnor.genlib"),
}
CELLS = [
    (lib_name, cell)
    for lib_name, library in LIBRARIES.items()
    for cell in library
]
LE = np.dtype("<u8")


def word_arrays(nwords, count):
    """``count`` arrays of ``nwords`` little-endian 64-bit words."""
    word = st.integers(0, (1 << 64) - 1)
    array = st.lists(word, min_size=nwords, max_size=nwords).map(
        lambda values: np.array(values, dtype=LE)
    )
    return st.lists(array, min_size=count, max_size=count)


class TestCellParity:
    """evaluate_cell_bits == evaluate_cell, bit for bit, on every cell."""

    def test_every_cell_is_covered(self):
        names = {(lib, cell.name) for lib, cell in CELLS}
        assert ("standard", "aoi21") in names
        assert ("nandnor", "g_oai22") in names
        assert ("nandnor", "g_tie1") in names

    @settings(max_examples=20, deadline=None)
    @given(nwords=st.sampled_from([1, 4, 8]), data=st.data())
    def test_matches_evaluate_cell(self, nwords, data):
        full = full_mask(nwords)
        for lib_name, cell in CELLS:
            words = data.draw(word_arrays(nwords, cell.num_inputs))
            expected = evaluate_cell(cell, words, nwords)
            got = evaluate_cell_bits(
                cell, [words_to_int(w) for w in words], full
            )
            assert 0 <= got <= full, (lib_name, cell.name)
            assert got == words_to_int(expected), (lib_name, cell.name)
            assert np.array_equal(int_to_words(got, nwords), expected)


class TestRoundTrips:
    @settings(max_examples=50, deadline=None)
    @given(nwords=st.sampled_from([1, 4, 8]), data=st.data())
    def test_words_int_words(self, nwords, data):
        (words,) = data.draw(word_arrays(nwords, 1))
        value = words_to_int(words)
        assert np.array_equal(int_to_words(value, nwords), words)

    @settings(max_examples=50, deadline=None)
    @given(nwords=st.sampled_from([1, 4, 8]), data=st.data())
    def test_bit_order_is_little_endian(self, nwords, data):
        # Bit 64*w + b of the int is bit b of word w, on any host: read
        # it from the values, never from native-order bytes.
        (words,) = data.draw(word_arrays(nwords, 1))
        value = words_to_int(words)
        for w in range(nwords):
            assert (value >> (64 * w)) & ((1 << 64) - 1) == int(words[w])
        assert value.to_bytes(8 * nwords, "little") == words.astype(LE).tobytes()

    def test_single_pattern_lands_in_its_word(self):
        words = int_to_words(1 << 70, 2)
        assert words.tolist() == [0, 1 << 6]
        assert words_to_int(np.array([0, 1 << 6], dtype=np.uint64)) == 1 << 70

    @settings(max_examples=25, deadline=None)
    @given(nwords=st.sampled_from([1, 4, 8]), data=st.data())
    def test_matrix_round_trip(self, nwords, data):
        rows = data.draw(word_arrays(nwords, 5))
        matrix = np.stack(rows).astype(np.uint64)
        ints = matrix_to_ints(matrix)
        assert ints == [words_to_int(row) for row in rows]
        assert np.array_equal(ints_to_matrix(ints, nwords), matrix)

    def test_empty_matrix(self):
        assert ints_to_matrix([], 3).shape == (0, 3)
        assert matrix_to_ints(np.zeros((0, 3), dtype=np.uint64)) == []


class TestInversionWidth:
    @settings(max_examples=50, deadline=None)
    @given(nwords=st.sampled_from([1, 4, 8]), data=st.data())
    def test_complement_stays_in_width(self, nwords, data):
        (words,) = data.draw(word_arrays(nwords, 1))
        full = full_mask(nwords)
        value = words_to_int(words)
        flipped = full ^ value
        assert 0 <= flipped <= full
        assert flipped.bit_count() == 64 * nwords - value.bit_count()
        assert np.array_equal(int_to_words(flipped, nwords), ~words)

    def test_inverting_cells_never_go_negative(self):
        full = full_mask(2)
        for _lib, cell in CELLS:
            for value in (0, full):
                got = evaluate_cell_bits(cell, [value] * cell.num_inputs, full)
                assert 0 <= got <= full, cell.name


class TestCounterexamplePattern:
    @settings(max_examples=100, deadline=None)
    @given(nwords=st.sampled_from([1, 4, 8]), data=st.data())
    def test_first_word_highest_bit(self, nwords, data):
        (diff,) = data.draw(word_arrays(nwords, 1))
        if not diff.any():
            return
        word = int(np.nonzero(diff)[0][0])
        bit = int(diff[word]).bit_length() - 1
        assert first_pattern(words_to_int(diff)) == 64 * word + bit

    def test_triage_simulation_counterexample_is_pinned(self):
        # 256 patterns are every vector of the 8 inputs: pattern p sets
        # x_i to bit i of p.  Words 0 and 1 both differ, on patterns 1, 3,
        # 17, 19, 33, 35, 49 and 51 of each; the counterexample is pattern
        # 51, the highest differing bit of the first differing word (not
        # pattern 1, the lowest, nor 64 + 51, the highest overall).
        netlist = make_random_netlist(standard_library(), 8, 24, 3, 15)
        checker = TriageChecker(netlist, num_patterns=256, seed=7)
        result = checker.check(Substitution(OS2, "g1", "x2"))
        assert result.status == NOT_PERMISSIBLE
        assert result.stage == "sim"
        assert result.counterexample == {
            "x0": 1, "x1": 1, "x2": 0, "x3": 0,
            "x4": 1, "x5": 1, "x6": 0, "x7": 0,
        }
