"""Tests for graph traversals: topo order, TFO/TFI, dominated regions."""

import pytest

from repro.errors import NetlistError
from repro.netlist.traverse import (
    region_inputs,
    topological_order,
    transitive_fanin,
    transitive_fanout,
)
from repro.transform.gain import dominated_region


def build_diamond(builder):
    """a -> (g1, g2) -> g3; classic reconvergence."""
    a, b = builder.inputs("a", "b")
    g1 = builder.and_(a, b, name="g1")
    g2 = builder.or_(a, b, name="g2")
    g3 = builder.xor_(g1, g2, name="g3")
    builder.output("o", g3)
    return builder.build()


class TestTopologicalOrder:
    def test_respects_edges(self, random_netlist):
        order = topological_order(random_netlist)
        position = {g.name: i for i, g in enumerate(order)}
        for gate in random_netlist.gates.values():
            for fanin in gate.fanins:
                assert position[fanin.name] < position[gate.name]

    def test_includes_everything(self, random_netlist):
        order = topological_order(random_netlist)
        assert len(order) == len(random_netlist.gates)

    def test_cached_until_edit(self, builder):
        nl = build_diamond(builder)
        first = topological_order(nl)
        assert topological_order(nl) is first
        nl.replace_fanin(nl.gate("g3"), 0, nl.gate("g2"))
        assert topological_order(nl) is not first


class TestTransitiveSets:
    def test_tfo_diamond(self, builder):
        nl = build_diamond(builder)
        names = [g.name for g in transitive_fanout(nl, [nl.gate("a")])]
        assert set(names) == {"g1", "g2", "g3"}

    def test_tfo_excludes_root(self, builder):
        nl = build_diamond(builder)
        names = [g.name for g in transitive_fanout(nl, [nl.gate("g1")])]
        assert set(names) == {"g3"}

    def test_tfo_is_topological(self, random_netlist):
        roots = [random_netlist.gate(random_netlist.input_names[0])]
        tfo = transitive_fanout(random_netlist, roots)
        order = {g.name: i for i, g in enumerate(topological_order(random_netlist))}
        indices = [order[g.name] for g in tfo]
        assert indices == sorted(indices)

    def test_tfi(self, builder):
        nl = build_diamond(builder)
        names = {g.name for g in transitive_fanin(nl, [nl.gate("g3")])}
        assert names == {"a", "b", "g1", "g2"}

    def test_tfi_of_input_empty(self, builder):
        nl = build_diamond(builder)
        assert transitive_fanin(nl, [nl.gate("a")]) == []


class TestMffc:
    def test_single_fanout_chain(self, builder):
        a, b = builder.inputs("a", "b")
        g1 = builder.and_(a, b, name="g1")
        g2 = builder.not_(g1, name="g2")
        builder.output("o", g2)
        nl = builder.build()
        region = {g.name for g in dominated_region(nl, g2)}
        assert region == {"g1", "g2"}

    def test_stops_at_shared_logic(self, builder):
        nl = build_diamond(builder)
        # g1 feeds only g3, but its fanins a/b also feed g2: region = {g1}.
        region = {g.name for g in dominated_region(nl, nl.gate("g1"))}
        assert region == {"g1"}

    def test_stops_at_po_driver(self, builder):
        a, b = builder.inputs("a", "b")
        g1 = builder.and_(a, b, name="g1")
        g2 = builder.not_(g1, name="g2")
        builder.output("o1", g1)
        builder.output("o2", g2)
        nl = builder.build()
        region = {g.name for g in dominated_region(nl, g2)}
        assert region == {"g2"}  # g1 survives: it drives a PO

    def test_input_has_empty_mffc(self, builder):
        nl = build_diamond(builder)
        assert dominated_region(nl, nl.gate("a")) == []

    def test_mffc_matches_sweep(self, random_netlist):
        # Removing a root's fanout then sweeping dead must delete exactly
        # the dominated region (the maximum fanout-free cone).
        nl = random_netlist
        for name in list(nl.gates):
            gate = nl.gates.get(name)
            if gate is None or gate.is_input:
                continue
            trial = nl.copy("trial")
            troot = trial.gate(name)
            expected = {g.name for g in dominated_region(trial, troot)}
            # Disconnect: move fanouts to a PI, drop PO bindings.
            some_pi = trial.gate(trial.input_names[0])
            for sink, pin in list(troot.fanouts):
                sink.fanins[pin] = some_pi
                some_pi.fanouts.append((sink, pin))
            troot.fanouts.clear()
            for po in list(troot.po_names):
                trial.outputs[po] = some_pi
                some_pi.po_names.append(po)
            troot.po_names.clear()
            trial._invalidate()
            removed = set(trial.sweep_dead())
            assert removed == expected, name


class TestRegionInputs:
    def test_region_inputs(self, builder):
        a, b = builder.inputs("a", "b")
        g1 = builder.and_(a, b, name="g1")
        g2 = builder.not_(g1, name="g2")
        builder.output("o", g2)
        nl = builder.build()
        region = dominated_region(nl, g2)
        inputs = {g.name for g in region_inputs(nl, region)}
        assert inputs == {"a", "b"}


class TestTopologicalIndex:
    def test_matches_order(self, random_netlist):
        from repro.netlist.traverse import topological_index

        order = topological_order(random_netlist)
        index = topological_index(random_netlist)
        for i, gate in enumerate(order):
            assert index[id(gate)] == i

    def test_invalidated_on_edit(self, builder):
        from repro.netlist.traverse import topological_index

        a, b = builder.inputs("a", "b")
        g = builder.and_(a, b, name="g")
        builder.output("o", g)
        nl = builder.build()
        first = topological_index(nl)
        nl.add_gate(nl.library.inverter(), [g], name="h")
        nl.set_output("o2", nl.gate("h"))
        second = topological_index(nl)
        assert id(nl.gate("h")) in second
        assert id(nl.gate("h")) not in first

    def test_tfo_bitset_equals_reference(self, random_netlist):
        # Cross-check the bitset TFO against a straightforward set sweep.
        for root in list(random_netlist.gates.values())[:10]:
            fast = {g.name for g in transitive_fanout(random_netlist, [root])}
            slow: set = set()
            for gate in topological_order(random_netlist):
                if gate is root:
                    continue
                if any(
                    f is root or f.name in slow for f in gate.fanins
                ):
                    slow.add(gate.name)
            assert fast == slow, root.name

    def test_tfo_multi_roots(self, random_netlist):
        gates = list(random_netlist.gates.values())
        roots = gates[:3]
        multi = {g.name for g in transitive_fanout(random_netlist, roots)}
        union = set()
        for root in roots:
            union |= {g.name for g in transitive_fanout(random_netlist, [root])}
        union -= {g.name for g in roots}
        assert multi == union

    def test_tfo_empty_roots(self, random_netlist):
        assert transitive_fanout(random_netlist, []) == []
