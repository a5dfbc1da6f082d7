"""Tests for parallel-pattern fault simulation."""

from repro.atpg.fault import StuckAtFault, all_faults
from repro.atpg.faultsim import (
    detected_mask,
    fault_coverage,
    fault_simulate,
    undetected_faults,
)
from repro.netlist.simulate import SimState, exhaustive_patterns, popcount


def brute_force_detects(netlist, fault, minterm):
    """Reference detection check by explicit good/faulty evaluation."""

    def evaluate(inject):
        values = {}
        from repro.netlist.traverse import topological_order

        for gate in topological_order(netlist):
            if gate.is_input:
                index = netlist.input_names.index(gate.name)
                v = (minterm >> index) & 1
            else:
                ins = []
                for pin, fanin in enumerate(gate.fanins):
                    value = values[fanin.name]
                    if (
                        inject
                        and fault.branch is not None
                        and fault.branch[0] == gate.name
                        and fault.branch[1] == pin
                    ):
                        value = fault.value
                    ins.append(value)
                v = gate.cell.evaluate(ins)
            if inject and fault.branch is None and gate.name == fault.gate_name:
                v = fault.value
            values[gate.name] = v
        return {po: values[d.name] for po, d in netlist.outputs.items()}

    return evaluate(False) != evaluate(True)


class TestDetectedMask:
    def test_matches_brute_force_figure2(self, figure2):
        sim = SimState(figure2, exhaustive_patterns(figure2.input_names))
        for fault in all_faults(figure2):
            mask = detected_mask(sim, fault)
            for minterm in range(8):
                got = (int(mask[0]) >> minterm) & 1
                want = int(brute_force_detects(figure2, fault, minterm))
                assert got == want, (str(fault), minterm)

    def test_matches_brute_force_random(self, random_netlist):
        nl = random_netlist
        sim = SimState(nl, exhaustive_patterns(nl.input_names))
        faults = all_faults(nl)
        # Every fault, branch faults included (the stem faults come first).
        assert any(fault.branch is not None for fault in faults)
        for fault in faults:
            mask = detected_mask(sim, fault)
            for minterm in range(1 << len(nl.input_names)):
                got = (int(mask[minterm // 64]) >> (minterm % 64)) & 1
                want = int(brute_force_detects(nl, fault, minterm))
                assert got == want, (str(fault), minterm)

    def test_input_stem_fault(self, figure2):
        sim = SimState(figure2, exhaustive_patterns(figure2.input_names))
        mask = detected_mask(sim, StuckAtFault("b", 0))
        assert popcount(mask) > 0


class TestAggregates:
    def test_fault_simulate_counts(self, figure2):
        sim = SimState(figure2, exhaustive_patterns(figure2.input_names))
        results = fault_simulate(sim, all_faults(figure2))
        assert all(count >= 0 for count in results.values())
        # f stuck-at-1 detected whenever f == 0 (6 of 8 minterms).
        assert results[StuckAtFault("f", 1)] * 8 // sim.num_patterns == 6

    def test_coverage_range(self, random_netlist):
        sim = SimState(
            random_netlist, exhaustive_patterns(random_netlist.input_names)
        )
        cov = fault_coverage(sim, all_faults(random_netlist))
        assert 0.0 <= cov <= 1.0

    def test_coverage_empty_list(self, figure2):
        sim = SimState(figure2, exhaustive_patterns(figure2.input_names))
        assert fault_coverage(sim, []) == 1.0

    def test_undetected_are_redundant_candidates(self, builder):
        # f = a OR (a AND b): the AND's sa0 is undetectable.
        a, b = builder.inputs("a", "b")
        g = builder.and_(a, b, name="g")
        f = builder.or_(a, g, name="f")
        builder.output("o", f)
        nl = builder.build()
        sim = SimState(nl, exhaustive_patterns(nl.input_names))
        undetected = undetected_faults(sim, all_faults(nl))
        assert StuckAtFault("g", 0) in undetected
        assert StuckAtFault("g", 1) not in undetected
