"""Global BDD construction for netlists.

Builds one ROBDD per stem over the primary inputs.  Used by the exact
probability engine and by the BDD stage of the equivalence checker, which
runs before its SAT stage (XOR/carry chains have linear-sized BDDs but
hard search trees).

Construction is bounded by the manager's node limit;
:class:`~repro.logic.bdd.BddSizeError` propagates to the caller, which
treats it as "BDD stage undecided".
"""

from __future__ import annotations

from typing import Optional

from repro.logic.bdd import BddManager
from repro.netlist.netlist import Gate, Netlist
from repro.netlist.traverse import topological_order


def build_gate_bdd(
    manager: BddManager, gate: Gate, nodes: dict[str, int]
) -> int:
    """Compose a gate's cell function over its fanin BDDs."""
    table = gate.cell.function
    fanin_nodes = [nodes[f.name] for f in gate.fanins]

    def expand(var: int, bits: int) -> int:
        if var == table.nvars:
            return manager.constant(bool(bits & 1))
        remaining = table.nvars - var
        zero_bits = 0
        one_bits = 0
        for m in range(1 << remaining):
            if (bits >> m) & 1:
                if m & 1:
                    one_bits |= 1 << (m >> 1)
                else:
                    zero_bits |= 1 << (m >> 1)
        low = expand(var + 1, zero_bits)
        high = expand(var + 1, one_bits)
        if low == high:
            return low
        return manager.apply_ite(fanin_nodes[var], high, low)

    return expand(0, table.bits)


def netlist_bdds(
    netlist: Netlist,
    manager: Optional[BddManager] = None,
    node_limit: int = 2_000_000,
    input_order: Optional[list[str]] = None,
) -> tuple[BddManager, dict[str, int]]:
    """(manager, stem name -> BDD node) for every stem of the netlist.

    ``input_order`` fixes the variable order (default: the netlist's input
    list); pass the same order when comparing two netlists in one manager.
    """
    order = input_order or list(netlist.input_names)
    if manager is None:
        manager = BddManager(len(order), node_limit)
    index = {name: i for i, name in enumerate(order)}
    nodes: dict[str, int] = {}
    for gate in topological_order(netlist):
        if gate.is_input:
            nodes[gate.name] = manager.variable(index[gate.name])
        else:
            nodes[gate.name] = build_gate_bdd(manager, gate, nodes)
    return manager, nodes
