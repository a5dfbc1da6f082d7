"""Property suite for window extraction (:mod:`repro.partition.window`).

Hypothesis drives the extraction over generator netlists and pins the
partition contract: full coverage, boundary annotations that agree with
an independent from-scratch recomputation, and byte-deterministic
results across runs and netlist copies.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetlistError
from repro.fuzz.generator import SHAPES, GeneratorConfig, random_mapped_netlist
from repro.library.standard import standard_library
from repro.netlist.traverse import topological_index
from repro.partition import (
    Window,
    extract_window,
    partition_windows,
    recompute_boundary,
)

LIB = standard_library()


def generated(seed, shape="random", gates=60):
    config = GeneratorConfig(
        seed=seed,
        shape=shape,
        min_gates=gates,
        max_gates=gates,
        min_inputs=4,
        max_inputs=8,
    )
    return random_mapped_netlist(config, LIB)


def reference_boundary(netlist, member_names):
    """Independent re-derivation of (inputs, outputs) from raw edges."""
    members = set(member_names)
    index = topological_index(netlist)
    ordered = sorted(member_names, key=lambda n: index[id(netlist.gate(n))])
    inputs: dict = {}
    outputs = []
    for name in ordered:
        gate = netlist.gate(name)
        for fanin in gate.fanins:
            if fanin.name not in members:
                inputs.setdefault(fanin.name)
        external = any(s.name not in members for s, _pin in gate.fanouts)
        if external or gate.po_names:
            outputs.append(name)
    return tuple(inputs), tuple(outputs)


windows_cases = st.tuples(
    st.integers(min_value=0, max_value=400),
    st.sampled_from(SHAPES),
    st.integers(min_value=12, max_value=90),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=4, max_value=40),
)


class TestPartitionProperties:
    @settings(max_examples=25, deadline=None)
    @given(windows_cases)
    def test_every_gate_in_at_least_one_window(self, case):
        seed, shape, gates, radius, max_gates = case
        netlist = generated(seed, shape, gates)
        windows = partition_windows(netlist, radius=radius, max_gates=max_gates)
        covered = set()
        for window in windows:
            assert len(window.members) <= max_gates
            covered.update(window.members)
        assert covered == {g.name for g in netlist.logic_gates()}

    @settings(max_examples=25, deadline=None)
    @given(windows_cases)
    def test_boundaries_match_from_scratch_recomputation(self, case):
        seed, shape, gates, radius, max_gates = case
        netlist = generated(seed, shape, gates)
        for window in partition_windows(
            netlist, radius=radius, max_gates=max_gates
        ):
            inputs, outputs = reference_boundary(netlist, window.members)
            assert window.inputs == inputs
            assert window.outputs == outputs
            members = [netlist.gate(n) for n in window.members]
            lib_inputs, lib_outputs = recompute_boundary(netlist, members)
            assert tuple(lib_inputs) == inputs
            assert tuple(lib_outputs) == outputs

    @settings(max_examples=15, deadline=None)
    @given(windows_cases)
    def test_extraction_is_deterministic_across_runs_and_copies(self, case):
        seed, shape, gates, radius, max_gates = case
        first = partition_windows(
            generated(seed, shape, gates), radius=radius, max_gates=max_gates
        )
        again = partition_windows(
            generated(seed, shape, gates), radius=radius, max_gates=max_gates
        )
        copied = partition_windows(
            generated(seed, shape, gates).copy(),
            radius=radius,
            max_gates=max_gates,
        )
        for left in (again, copied):
            assert [w.members for w in left] == [w.members for w in first]
            assert [w.inputs for w in left] == [w.inputs for w in first]
            assert [w.outputs for w in left] == [w.outputs for w in first]


class TestExtractWindow:
    def test_members_in_topological_order(self):
        netlist = generated(9, gates=50)
        seed = next(iter(netlist.logic_gates()))
        window = extract_window(netlist, seed, radius=3, max_gates=20)
        index = topological_index(netlist)
        positions = [index[id(netlist.gate(n))] for n in window.members]
        assert positions == sorted(positions)
        assert seed.name in window.members
        assert window.seeds == (seed.name,)

    def test_radius_one_is_immediate_neighbourhood(self):
        netlist = generated(3, gates=40)
        seed = max(netlist.logic_gates(), key=lambda g: g.fanout_count())
        window = extract_window(netlist, seed, radius=1, max_gates=1000)
        neighbours = {seed.name}
        neighbours.update(
            f.name for f in seed.fanins if not f.is_input
        )
        neighbours.update(g.name for g in seed.fanout_gates())
        assert set(window.members) == neighbours

    def test_max_gates_caps_membership(self):
        netlist = generated(4, gates=80)
        seed = next(iter(netlist.logic_gates()))
        window = extract_window(netlist, seed, radius=10, max_gates=7)
        assert len(window.members) == 7

    def test_seed_validation(self):
        netlist = generated(5, gates=20)
        pi = netlist.gate(netlist.input_names[0])
        gate = next(iter(netlist.logic_gates()))
        with pytest.raises(NetlistError, match="primary input"):
            extract_window(netlist, pi, radius=2, max_gates=10)
        with pytest.raises(NetlistError, match="radius"):
            extract_window(netlist, gate, radius=0, max_gates=10)
        with pytest.raises(NetlistError, match="size"):
            extract_window(netlist, gate, radius=2, max_gates=0)
        foreign = generated(6, gates=20)
        with pytest.raises(NetlistError, match="does not belong"):
            extract_window(foreign, gate, radius=2, max_gates=10)

    def test_single_window_swallows_small_netlist(self):
        netlist = generated(7, gates=15)
        windows = partition_windows(netlist, radius=50, max_gates=10_000)
        assert len(windows) == 1
        window = windows[0]
        assert set(window.members) == {g.name for g in netlist.logic_gates()}
        assert isinstance(window, Window)
        assert "window[0]" in str(window)
