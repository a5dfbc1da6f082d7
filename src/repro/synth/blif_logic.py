"""Front end for *logic* (unmapped) BLIF: multi-level ``.names`` networks.

The mapped-netlist reader (:mod:`repro.netlist.blif`) only accepts
``.gate`` instances; this module handles the other common BLIF dialect — a
DAG of ``.names`` nodes, each a single-output SOP over arbitrary fanins —
and pushes it through the synthesis back end:

    parse_logic_blif  ->  LogicNetwork (per-node covers)
    network_to_subject_graph  ->  AND2/INV graph (per-node minimize+factor)
    synthesize_logic_blif  ->  mapped Netlist

``.names`` semantics follow espresso/SIS: each row is an input cube plus
the output value; all rows of a node must agree on the output value.  Rows
ending in ``1`` enumerate the ON-set; rows ending in ``0`` the OFF-set
(the node function is then the complement).  A node with no rows is
constant 0; a ``.names`` with no inputs and a ``1`` row is constant 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ParseError
from repro.library.cell import Library
from repro.logic.sop import Cover, Cube
from repro.netlist.blif import _logical_lines
from repro.netlist.netlist import Netlist
from repro.synth.factor import factor_cover
from repro.synth.flow import SynthesisOptions
from repro.synth.mapper import technology_map
from repro.synth.subject import SubjectGraph
from repro.synth.twolevel import minimize_cover


@dataclass
class LogicNode:
    """One ``.names`` node: a cover over named fanin signals."""

    name: str
    fanins: list[str]
    cover: Cover  # ON-set over the fanins (OFF rows already complemented)


@dataclass
class LogicNetwork:
    """A multi-level combinational network of SOP nodes."""

    name: str
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    nodes: dict[str, LogicNode] = field(default_factory=dict)

    def topological_node_order(self) -> list[LogicNode]:
        order: list[LogicNode] = []
        state: dict[str, int] = {}

        def visit(name: str) -> None:
            if name in self.nodes and state.get(name) is None:
                state[name] = 0
                for fanin in self.nodes[name].fanins:
                    if state.get(fanin) == 0:
                        raise ParseError(
                            f"combinational cycle through {fanin!r}"
                        )
                    visit(fanin)
                state[name] = 1
                order.append(self.nodes[name])

        for po in self.outputs:
            visit(po)
        # Nodes not reachable from outputs still parse; append them last so
        # diagnostics can see them.
        for name in self.nodes:
            visit(name)
        return order

    def validate(self) -> None:
        defined = set(self.inputs) | set(self.nodes)
        for node in self.nodes.values():
            for fanin in node.fanins:
                if fanin not in defined:
                    raise ParseError(
                        f"node {node.name!r}: undefined fanin {fanin!r}"
                    )
        for po in self.outputs:
            if po not in defined:
                raise ParseError(f"undriven primary output {po!r}")
        self.topological_node_order()


def parse_logic_blif(text: str, name: Optional[str] = None) -> LogicNetwork:
    """Parse a ``.names``-style BLIF file into a :class:`LogicNetwork`."""
    network = LogicNetwork(name or "logic")
    lines = _logical_lines(text)
    index = 0
    while index < len(lines):
        lineno, line = lines[index]
        index += 1
        tokens = line.split()
        directive = tokens[0]
        if directive == ".model":
            if len(tokens) > 1 and name is None:
                network.name = tokens[1]
        elif directive == ".inputs":
            network.inputs.extend(tokens[1:])
        elif directive == ".outputs":
            network.outputs.extend(tokens[1:])
        elif directive == ".names":
            if len(tokens) < 2:
                raise ParseError("malformed .names line", lineno)
            *fanins, out = tokens[1:]
            rows: list[str] = []
            while index < len(lines) and not lines[index][1].startswith("."):
                rows.append(lines[index][1])
                index += 1
            network.nodes[out] = _node_from_rows(out, fanins, rows, lineno)
        elif directive == ".end":
            break
        elif directive in (".latch", ".subckt", ".gate"):
            raise ParseError(
                f"{directive} is not supported by the logic-BLIF reader",
                lineno,
            )
        else:
            raise ParseError(f"unknown directive {directive!r}", lineno)
    if not network.outputs:
        raise ParseError("logic BLIF without .outputs")
    network.validate()
    return network


def _node_from_rows(
    out: str, fanins: list[str], rows: list[str], lineno: int
) -> LogicNode:
    nvars = len(fanins)
    cubes: list[Cube] = []
    polarity: Optional[str] = None
    for row in rows:
        parts = row.split()
        if nvars == 0:
            in_part, out_part = "", parts[0]
        elif len(parts) == 2:
            in_part, out_part = parts
        else:
            raise ParseError(f"bad .names row {row!r}", lineno)
        if len(in_part) != nvars or out_part not in ("0", "1"):
            raise ParseError(f"bad .names row {row!r}", lineno)
        if polarity is None:
            polarity = out_part
        elif polarity != out_part:
            raise ParseError(
                f"node {out!r}: mixed output polarities", lineno
            )
        cubes.append(Cube.from_string(in_part) if nvars else Cube.universe(0))
    cover = Cover(nvars, cubes)
    if polarity == "0":
        cover = cover.complement()
    return LogicNode(out, list(fanins), cover)


# ----------------------------------------------------------------------
# Synthesis back end
# ----------------------------------------------------------------------
def network_to_subject_graph(
    network: LogicNetwork, options: Optional[SynthesisOptions] = None
) -> SubjectGraph:
    """Minimize + factor each node and hash the results into one graph."""
    options = options or SynthesisOptions()
    graph = SubjectGraph(network.name)
    env: dict[str, int] = {}
    for pi in network.inputs:
        env[pi] = graph.add_pi(pi)
    for node in network.topological_node_order():
        cover = node.cover
        if (
            options.minimize
            and len(cover.cubes) <= options.minimize_cube_limit
            and cover.nvars <= options.minimize_var_limit
        ):
            cover = minimize_cover(cover)
        expr = factor_cover(cover, node.fanins)
        env[node.name] = graph.add_expr(expr, env)
    for po in network.outputs:
        graph.set_output(po, env[po])
    return graph


def synthesize_logic_blif(
    text: str,
    library: Library,
    options: Optional[SynthesisOptions] = None,
    name: Optional[str] = None,
) -> Netlist:
    """Logic BLIF in, mapped netlist out."""
    options = options or SynthesisOptions()
    network = parse_logic_blif(text, name)
    graph = network_to_subject_graph(network, options)
    return technology_map(graph, library, options.map_options, network.name)
