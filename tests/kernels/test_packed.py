"""Parity of the packed per-gate kernels against the numpy dict walk.

Every kernel in :mod:`repro.kernels.packed` must be bit-identical to the
reference dict-walk (one :func:`evaluate_cell` per gate in topological
order) — that is the contract that lets the hot paths swap in the packed
view without perturbing a single move of the optimizer.  The kernels run
on pattern ints; their results are compared with the words of the numpy
walk.
"""

from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.bits import (
    full_mask,
    int_to_words,
    ints_to_matrix,
    words_to_int,
)
from repro.kernels.packed import PackedCircuit, packed_view
from repro.library.standard import standard_library
from repro.netlist.blif import parse_blif_file
from repro.netlist.simulate import (
    evaluate_cell,
    exhaustive_patterns,
    random_patterns,
)
from repro.netlist.traverse import topological_order
from tests.conftest import make_random_netlist

LIB = standard_library()
NWORDS = 4
BLIF_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "blif"


def reference_values(netlist, patterns, nwords):
    """The per-gate dict-walk simulation the kernels must reproduce."""
    values = {}
    for gate in topological_order(netlist):
        if gate.is_input:
            values[gate.name] = np.asarray(patterns[gate.name], dtype=np.uint64)
        else:
            values[gate.name] = evaluate_cell(
                gate.cell, [values[f.name] for f in gate.fanins], nwords
            )
    return values


def build(seed, num_gates=20, nwords=NWORDS):
    netlist = make_random_netlist(LIB, 5, num_gates, 3, seed=seed)
    patterns = random_patterns(
        netlist.input_names, nwords * 64, seed=seed + 1
    )
    return netlist, patterns


def simulate_rows(packed, patterns, nwords=NWORDS):
    """``packed.simulate`` on word-array input patterns."""
    inputs = {name: words_to_int(words) for name, words in patterns.items()}
    return packed.simulate(inputs, full_mask(nwords))


def assert_matches_dict_walk(netlist, patterns, nwords):
    packed = PackedCircuit(netlist)
    rows = simulate_rows(packed, patterns, nwords)
    expected = reference_values(netlist, patterns, nwords)
    for i, name in enumerate(packed.names):
        assert np.array_equal(int_to_words(rows[i], nwords), expected[name]), name


class TestSimulateParity:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_dict_walk(self, seed):
        for nwords in (1, 4, 8):
            netlist, patterns = build(seed, nwords=nwords)
            assert_matches_dict_walk(netlist, patterns, nwords)

    def test_matches_dict_walk_exhaustive(self):
        # misex1's 8 inputs give 256 patterns (4 words); its and3, aoi21
        # and oai21 cells run the generic cube path.
        netlist = parse_blif_file(BLIF_DIR / "misex1.blif", LIB)
        patterns = exhaustive_patterns(netlist.input_names)
        assert_matches_dict_walk(netlist, patterns, 4)

    def test_inputs_copied_into_rows(self):
        netlist, patterns = build(3)
        packed = PackedCircuit(netlist)
        rows = simulate_rows(packed, patterns)
        for name in netlist.input_names:
            row = int_to_words(rows[packed.index[name]], NWORDS)
            assert np.array_equal(row, patterns[name])


class TestOverlayParity:
    """propagate_overlay == full resimulation with the stem pinned."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), pick=st.integers(0, 10**6))
    def test_forced_complement(self, seed, pick):
        netlist, patterns = build(seed)
        packed = PackedCircuit(netlist)
        rows = simulate_rows(packed, patterns)
        matrix = ints_to_matrix(rows, NWORDS)
        logic = [
            i for i, g in enumerate(packed.order) if not g.is_input
        ]
        root = logic[pick % len(logic)]
        forced_word = ~matrix[root]
        overlay = packed.propagate_overlay(
            rows, {root: words_to_int(forced_word)}, full_mask(NWORDS)
        )

        # Reference: dict walk with the root's value pinned.
        pinned = {}
        for gate in topological_order(netlist):
            i = packed.index[gate.name]
            if i == root:
                pinned[gate.name] = forced_word
            elif gate.is_input:
                pinned[gate.name] = np.asarray(
                    patterns[gate.name], dtype=np.uint64
                )
            else:
                pinned[gate.name] = evaluate_cell(
                    gate.cell,
                    [pinned[f.name] for f in gate.fanins],
                    NWORDS,
                )
        for i, name in enumerate(packed.names):
            composed = overlay.get(i, rows[i])
            assert composed == words_to_int(pinned[name]), name

    def test_empty_forced_is_empty(self):
        netlist, patterns = build(11)
        packed = PackedCircuit(netlist)
        rows = simulate_rows(packed, patterns)
        assert packed.propagate_overlay(rows, {}, full_mask(NWORDS)) == {}

    def test_overlay_never_mutates_matrix(self):
        # The committed rows the overlay reads stay as they were.
        netlist, patterns = build(5)
        packed = PackedCircuit(netlist)
        rows = simulate_rows(packed, patterns)
        before = list(rows)
        full = full_mask(NWORDS)
        logic = [i for i, g in enumerate(packed.order) if not g.is_input]
        packed.propagate_overlay(rows, {logic[0]: full ^ rows[logic[0]]}, full)
        assert rows == before


class TestFlipMaskParity:
    """flip_mask == OR over PO drivers of the pinned-resim XOR committed."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), pick=st.integers(0, 10**6))
    def test_matches_brute_force(self, seed, pick):
        netlist, patterns = build(seed)
        packed = PackedCircuit(netlist)
        rows = simulate_rows(packed, patterns)
        matrix = ints_to_matrix(rows, NWORDS)
        logic = [i for i, g in enumerate(packed.order) if not g.is_input]
        root = logic[pick % len(logic)]
        mask = packed.flip_mask(rows, root, full_mask(NWORDS))

        pinned = {}
        for gate in topological_order(netlist):
            i = packed.index[gate.name]
            if i == root:
                pinned[gate.name] = ~matrix[root]
            elif gate.is_input:
                pinned[gate.name] = np.asarray(
                    patterns[gate.name], dtype=np.uint64
                )
            else:
                pinned[gate.name] = evaluate_cell(
                    gate.cell,
                    [pinned[f.name] for f in gate.fanins],
                    NWORDS,
                )
        expected = np.zeros(NWORDS, dtype=np.uint64)
        for driver in {g.name for g in netlist.outputs.values()}:
            expected |= pinned[driver] ^ matrix[packed.index[driver]]
        assert mask == words_to_int(expected)


class TestPackedViewCoherence:
    def test_view_is_shared(self):
        netlist, _ = build(7)
        assert packed_view(netlist) is packed_view(netlist)

    def test_rebuilt_after_structural_edit(self):
        netlist, _ = build(9)
        view = packed_view(netlist)
        # Every structural edit drops the cached topological order, which
        # keys the packed view's validity.
        netlist._invalidate()
        fresh = packed_view(netlist)
        assert fresh is not view
        assert fresh.names == view.names
