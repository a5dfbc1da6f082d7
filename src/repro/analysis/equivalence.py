"""Functional-equivalence classes over netlist signals.

The two-tier recipe from "Simulation-Guided Boolean Resubstitution":

1. **Seeding.**  Every signal's packed simulation signature is
   canonicalised by phase (complemented when its first bit is 1, so a
   signal and its inverse land in the same bucket) and bucketed by the
   canonical bytes.  Signals in different buckets are *proven* distinct
   by the simulation witness; only intra-bucket pairs are candidates.
   Structural duplicates — same cell, same fanin tuple — are promoted
   immediately (``proof="structural"``): identical functions of
   identical inputs.
2. **Confirmation.**  Every remaining candidate is checked against its
   bucket's existing class representatives with the incremental SAT
   oracle (an XOR difference variable per pair; UNSAT proves the pair
   equal or antiphase).  A refuted or budget-limited candidate starts
   its own class — UNKNOWN can only lose a merge, never create a wrong
   one.

The result is a partition into :class:`~repro.analysis.facts.EquivClass`
entries: a representative (the lexicographically smallest member, for
deterministic output) plus each member's parity relative to it.
Primary inputs participate (``BUF(x)`` classes with ``x``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.kernels.bits import WORD_BYTES
from repro.netlist.netlist import Netlist
from repro.netlist.simulate import SimState
from repro.netlist.traverse import topological_order

from repro.analysis.facts import EquivClass
from repro.analysis.oracle import FactOracle


class _Class:
    __slots__ = ("rep", "members", "proofs")

    def __init__(self, rep: str):
        self.rep = rep
        #: member name -> parity relative to ``rep``.
        self.members: Dict[str, int] = {rep: 0}
        #: member name -> proof kind ("structural" | "sat").
        self.proofs: Dict[str, str] = {}


def find_equivalences(
    netlist: Netlist,
    sim: SimState,
    oracle: FactOracle,
) -> List[EquivClass]:
    """Partition signals into proven equivalence classes.

    ``sim`` is the shared simulation state; signature buckets alone are
    never trusted, so a merge is either a structural duplicate or an
    UNSAT answer from ``oracle``.
    """
    values = sim.values
    size = WORD_BYTES * sim.nwords
    buckets: Dict[bytes, List[Tuple[str, int]]] = {}
    structural: Dict[Tuple[str, Tuple[str, ...]], str] = {}
    structural_twin: Dict[str, str] = {}
    for gate in topological_order(netlist):
        word = values.get(gate.name)
        if word is None:
            continue
        phase = word & 1
        # The words' little-endian bytes: buckets sort as they always have.
        canon = (word ^ sim.full if phase else word).to_bytes(size, "little")
        buckets.setdefault(canon, []).append((gate.name, phase))
        if not gate.is_input:
            key = (gate.cell.name, tuple(f.name for f in gate.fanins))
            first = structural.get(key)
            if first is None:
                structural[key] = gate.name
            else:
                structural_twin[gate.name] = first

    classes: List[EquivClass] = []
    for canon in sorted(buckets):
        members = buckets[canon]
        if len(members) < 2:
            continue
        groups: List[_Class] = []
        index: Dict[str, _Class] = {}
        for name, phase in members:
            placed = None
            twin = structural_twin.get(name)
            if twin is not None and twin in index:
                placed = index[twin]
                parity = placed.members[twin]  # same function as twin
                placed.members[name] = parity
                placed.proofs[name] = "structural"
            else:
                for group in groups:
                    rep_phase = values[group.rep] & 1
                    parity = phase ^ rep_phase
                    verdict = oracle.prove_equivalent(
                        name, group.rep, parity
                    )
                    if verdict is True:
                        group.members[name] = parity
                        group.proofs[name] = "sat"
                        placed = group
                        break
            if placed is None:
                placed = _Class(name)
                groups.append(placed)
            index[name] = placed
        for group in groups:
            if len(group.members) < 2:
                continue
            rep = min(group.members)
            rep_parity = group.members[rep]
            classes.append(
                EquivClass(
                    representative=rep,
                    members={
                        name: parity ^ rep_parity
                        for name, parity in group.members.items()
                    },
                    proofs=dict(group.proofs),
                )
            )
    classes.sort(key=lambda cls: cls.representative)
    return classes
