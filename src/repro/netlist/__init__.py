"""Mapped-netlist data structures and algorithms.

- :mod:`~repro.netlist.netlist` — the mutable gate-level DAG with ordered
  pins, stems/branches and incremental edit operations.
- :mod:`~repro.netlist.traverse` — topological orders, transitive fanin/
  fanout.
- :mod:`~repro.netlist.simulate` — bit-parallel logic simulation with
  incremental re-simulation of fanout cones.
- :mod:`~repro.netlist.blif` — BLIF I/O for mapped netlists.
- :mod:`~repro.netlist.verify` — structural invariant checking.
"""

from repro.netlist.netlist import Gate, Netlist
from repro.netlist.traverse import (
    topological_order,
    transitive_fanin,
    transitive_fanout,
)
from repro.netlist.simulate import (
    SimState,
    covering_patterns,
    exhaustive_patterns,
    random_patterns,
)
from repro.netlist.blif import parse_blif, write_blif
from repro.netlist.verilog import write_verilog
from repro.netlist.verify import check_netlist

__all__ = [
    "Gate",
    "Netlist",
    "topological_order",
    "transitive_fanin",
    "transitive_fanout",
    "SimState",
    "random_patterns",
    "exhaustive_patterns",
    "covering_patterns",
    "parse_blif",
    "write_blif",
    "write_verilog",
    "check_netlist",
]
