"""Bit-parallel (parallel-pattern) stuck-at fault simulation.

Each fault pins one value — the stuck stem, or the faulty sink of a stuck
branch — and the packed view's cone-local overlay kernel
(:meth:`~repro.kernels.packed.PackedCircuit.propagate_overlay`) carries
it through the fault site's transitive fanout, word-parallel across all
patterns of a :class:`~repro.netlist.simulate.SimState`, without
touching the committed good-machine values.  A fault is detected on
pattern *p* when some primary output differs between good and faulty
machine.

Used three ways in this system: classic fault-coverage evaluation, cheap
redundancy filtering (a fault no random pattern detects is a redundancy
*candidate*), and the candidate-generation statistics of the optimizer.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.atpg.fault import StuckAtFault
from repro.kernels.bits import int_to_words
from repro.kernels.packed import packed_view
from repro.kernels.words import popcount
from repro.netlist.simulate import SimState


def detected_mask(sim: SimState, fault: StuckAtFault) -> np.ndarray:
    """Bit mask of patterns on which the fault is detected at some PO.

    The faulty machine runs on the simulation's pattern ints; the mask is
    returned as ``uint64`` words.
    """
    stem, branch = fault.resolve(sim.netlist)
    stuck = sim.full if fault.value else 0
    if branch is None:
        site, faulty = stem, stuck
    else:
        site, pin = branch
        faulty = sim.eval_with_pin(site, pin, stuck)
    mask = 0
    if faulty != sim.values[site.name]:
        packed = packed_view(sim.netlist)
        rows = sim.rows()
        overlay = packed.propagate_overlay(
            rows, {packed.index[site.name]: faulty}, sim.full
        )
        mask = packed.output_diff_mask(rows, overlay)
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
