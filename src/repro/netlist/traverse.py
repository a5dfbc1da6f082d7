"""Graph traversals over netlists.

Includes the paper's structural notions: transitive fanout ``TFO(s)``,
transitive fanin, and the inputs of a region (eq. 3's ``inputs(Dom(s))``).
The dominated region ``Dom(s)`` itself, the gates that die when a stem is
substituted away, is grown by :func:`repro.transform.gain.dominated_region`.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import NetlistError
from repro.netlist.netlist import Gate, Netlist


def topological_order(netlist: Netlist) -> list[Gate]:
    """Gates in fanin-before-fanout order (PIs first).  Cached per edit."""
    cached = netlist._topo_cache
    if cached is not None:
        return cached
    order: list[Gate] = []
    state: dict[int, int] = {}  # 0 = visiting, 1 = done
    for root in netlist.gates.values():
        if id(root) in state:
            continue
        stack: list[tuple[Gate, int]] = [(root, 0)]
        while stack:
            gate, child = stack[-1]
            if child == 0:
                marker = state.get(id(gate))
                if marker == 1:
                    stack.pop()
                    continue
                if marker == 0:
                    raise NetlistError(
                        f"combinational cycle through {gate.name!r}"
                    )
                state[id(gate)] = 0
            if child < len(gate.fanins):
                stack[-1] = (gate, child + 1)
                nxt = gate.fanins[child]
                if state.get(id(nxt)) != 1:
                    stack.append((nxt, 0))
            else:
                state[id(gate)] = 1
                order.append(gate)
                stack.pop()
    netlist._topo_cache = order
    return order


def topological_index(netlist: Netlist) -> dict[int, int]:
    """``id(gate) -> position`` in the topological order (cached per edit)."""
    cached = getattr(netlist, "_topo_index_cache", None)
    order = topological_order(netlist)
    if cached is not None and cached[0] is order:
        return cached[1]
    index = {id(g): i for i, g in enumerate(order)}
    netlist._topo_index_cache = (order, index)
    return index


def transitive_fanout(netlist: Netlist, roots: Iterable[Gate]) -> list[Gate]:
    """TFO of the given stems, in topological order (roots excluded).

    One forward sweep carrying reachability as an integer bitset over
    topological positions — considerably cheaper than per-gate set lookups
    on the optimizer's hot path.
    """
    order = topological_order(netlist)
    index = topological_index(netlist)
    root_bits = 0
    for gate in roots:
        root_bits |= 1 << index[id(gate)]
    if not root_bits:
        return []
    reach_bits = 0
    start = (root_bits & -root_bits).bit_length()  # first position after min root
    for i in range(start, len(order)):
        gate = order[i]
        bit = 1 << i
        if root_bits & bit:
            continue
        for fanin in gate.fanins:
            j = index[id(fanin)]
            if (root_bits | reach_bits) >> j & 1:
                reach_bits |= bit
                break
    return [order[i] for i in range(len(order)) if (reach_bits >> i) & 1]


def transitive_fanin(netlist: Netlist, roots: Iterable[Gate]) -> list[Gate]:
    """TFI of the given gates, topological order (roots excluded)."""
    seen: set[int] = set()
    result_ids: set[int] = set()
    stack = list(roots)
    root_ids = {id(g) for g in stack}
    while stack:
        gate = stack.pop()
        for fanin in gate.fanins:
            if id(fanin) not in seen:
                seen.add(id(fanin))
                result_ids.add(id(fanin))
                stack.append(fanin)
    result_ids -= root_ids
    return [g for g in topological_order(netlist) if id(g) in result_ids]


def po_reachable(netlist: Netlist) -> set[str]:
    """Names of gates with a structural path to some primary output."""
    drivers = list(netlist.outputs.values())
    reachable = {gate.name for gate in drivers}
    reachable.update(gate.name for gate in transitive_fanin(netlist, drivers))
    return reachable


def region_inputs(netlist: Netlist, region: list[Gate]) -> list[Gate]:
    """Gates outside the region with a direct fanout into it.

    This is the paper's ``inputs(Dom(s))`` (eq. 3's second sum).
    """
    region_ids = {id(g) for g in region}
    found: dict[int, Gate] = {}
    for gate in region:
        for fanin in gate.fanins:
            if id(fanin) not in region_ids:
                found.setdefault(id(fanin), fanin)
    return list(found.values())
