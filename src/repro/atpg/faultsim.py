"""Bit-parallel (parallel-pattern) stuck-at fault simulation.

For each fault the faulty machine is re-simulated only on the fault site's
transitive fanout, word-parallel across all patterns of a
:class:`~repro.netlist.simulate.SimState`.  A fault is detected on pattern
*p* when some primary output differs between good and faulty machine.

Used three ways in this system: classic fault-coverage evaluation, cheap
redundancy filtering (a fault no random pattern detects is a redundancy
*candidate*), and the candidate-generation statistics of the optimizer.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.atpg.fault import StuckAtFault
from repro.kernels.bits import evaluate_cell_bits, int_to_words
from repro.kernels.words import popcount
from repro.netlist.simulate import SimState
from repro.netlist.traverse import transitive_fanout


def detected_mask(sim: SimState, fault: StuckAtFault) -> np.ndarray:
    """Bit mask of patterns on which the fault is detected at some PO.

    The faulty machine runs on the simulation's pattern ints; the mask is
    returned as ``uint64`` words.
    """
    netlist = sim.netlist
    stem, branch = fault.resolve(netlist)
    values = sim.values
    full = sim.full
    stuck = full if fault.value else 0
    overlay: dict[str, int] = {}
    if branch is None:
        if stuck == values[stem.name]:
            return int_to_words(0, sim.nwords)
        overlay[stem.name] = stuck
        roots = [stem]
    else:
        sink, pin = branch
        ins = [
            stuck if i == pin else values[f.name]
            for i, f in enumerate(sink.fanins)
        ]
        faulty_sink = evaluate_cell_bits(sink.cell, ins, full)
        if faulty_sink == values[sink.name]:
            return int_to_words(0, sim.nwords)
        overlay[sink.name] = faulty_sink
        roots = [sink]
    for gate in transitive_fanout(netlist, roots):
        ins = [overlay.get(f.name, values[f.name]) for f in gate.fanins]
        new = evaluate_cell_bits(gate.cell, ins, full)
        if new != values[gate.name]:
            overlay[gate.name] = new
    mask = 0
    for driver in netlist.outputs.values():
        faulty = overlay.get(driver.name)
        if faulty is not None:
            mask |= faulty ^ values[driver.name]
    return int_to_words(mask, sim.nwords)


def fault_simulate(
    sim: SimState, faults: Iterable[StuckAtFault]
) -> dict[StuckAtFault, int]:
    """Detection count per fault over the pattern set."""
    return {fault: popcount(detected_mask(sim, fault)) for fault in faults}


def fault_coverage(sim: SimState, faults: Sequence[StuckAtFault]) -> float:
    """Fraction of the fault list detected by at least one pattern."""
    if not faults:
        return 1.0
    detected = sum(
        1 for fault in faults if popcount(detected_mask(sim, fault)) > 0
    )
    return detected / len(faults)


def undetected_faults(
    sim: SimState, faults: Iterable[StuckAtFault]
) -> list[StuckAtFault]:
    """Faults no pattern in the set detects — redundancy candidates."""
    return [
        fault
        for fault in faults
        if popcount(detected_mask(sim, fault)) == 0
    ]
