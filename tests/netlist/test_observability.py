"""Property tests: the batched observability kernel equals the per-stem
reference (``SimState.stem_observability`` / ``branch_observability``)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetlistError
from repro.library.standard import standard_library
from repro.netlist.observability import ObservabilityMaps
from repro.netlist.simulate import SimState, exhaustive_patterns, random_patterns

from tests.conftest import make_figure2, make_random_netlist

LIB = standard_library()


def assert_maps_match_reference(netlist, sim, maps):
    for gate in netlist.gates.values():
        expected = sim.stem_observability(gate)
        assert maps.stem[gate.name] == expected, gate.name
    for gate in netlist.gates.values():
        for sink, pin in gate.fanouts:
            expected = sim.branch_observability(sink, pin)
            got = maps.branch(sink, pin)
            assert got == expected, (sink.name, pin)


class TestAgainstReference:
    @settings(max_examples=20, deadline=None)
    @given(
        num_inputs=st.integers(3, 6),
        num_gates=st.integers(4, 24),
        num_outputs=st.integers(1, 3),
        seed=st.integers(0, 10_000),
    )
    def test_random_netlists(self, num_inputs, num_gates, num_outputs, seed):
        netlist = make_random_netlist(LIB, num_inputs, num_gates, num_outputs, seed)
        if not netlist.input_names:
            return
        sim = SimState(netlist, random_patterns(netlist.input_names, 128, seed=seed))
        maps = ObservabilityMaps(sim)
        assert_maps_match_reference(netlist, sim, maps)

    def test_figure2_exhaustive(self):
        netlist = make_figure2(LIB)
        sim = SimState(netlist, exhaustive_patterns(netlist.input_names))
        maps = ObservabilityMaps(sim)
        assert_maps_match_reference(netlist, sim, maps)

    def test_reconvergent_stem(self):
        # s fans out to two XOR branches that reconverge: the OR over branch
        # masks would overestimate, the exact kernel must not.
        from repro.netlist.build import NetlistBuilder

        b = NetlistBuilder(LIB, "reconv")
        a, c = b.inputs("a", "c")
        s = b.and_(a, c, name="s")
        left = b.xor_(s, a, name="left")
        right = b.xor_(s, c, name="right")
        out = b.xnor_(left, right, name="out")
        b.output("o", out)
        netlist = b.build()
        sim = SimState(netlist, exhaustive_patterns(netlist.input_names))
        maps = ObservabilityMaps(sim)
        assert_maps_match_reference(netlist, sim, maps)

    def test_non_observable_stem(self):
        # A gate with no path to any output has an all-zero mask.
        from repro.netlist.build import NetlistBuilder

        b = NetlistBuilder(LIB, "dead")
        a, c = b.inputs("a", "c")
        b.and_(a, c, name="dangling")
        keep = b.or_(a, c, name="keep")
        b.output("o", keep)
        netlist = b.build()
        sim = SimState(netlist, exhaustive_patterns(netlist.input_names))
        maps = ObservabilityMaps(sim)
        assert maps.stem["dangling"] == 0
        assert_maps_match_reference(netlist, sim, maps)

    def test_branch_of_input_rejected(self):
        netlist = make_figure2(LIB)
        sim = SimState(netlist, exhaustive_patterns(netlist.input_names))
        maps = ObservabilityMaps(sim)
        with pytest.raises(NetlistError):
            maps.branch(netlist.gate("a"), 0)
