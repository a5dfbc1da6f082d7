"""Window extraction: radius-bounded TFI/TFO cones around seed gates.

A *window* is a set of logic gates reachable from a seed within ``radius``
structural steps, walking both fanin and fanout edges, capped at
``max_gates`` members.  Its boundary splits into

- **inputs** — signals outside the window (primary inputs or external
  gates) driving some member pin, and
- **outputs** — members observed outside the window, either through a
  branch into an external gate or through a primary-output port.

Every set is ordered deterministically (members and outputs in topological
order, inputs in first-use order over that walk), so extraction is
byte-reproducible across runs and worker counts — a property the test
suite pins by comparing exported BLIF bytes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import NetlistError
from repro.netlist.netlist import Gate, Netlist
from repro.netlist.traverse import topological_index


@dataclass(frozen=True)
class Window:
    """One optimization region plus its annotated boundary."""

    #: Position in the partition (also the deterministic merge order).
    index: int
    #: Seed gate names the cone was grown from.
    seeds: tuple[str, ...]
    #: Member logic gates, topological order.
    members: tuple[str, ...]
    #: External driving signals (gates or primary inputs), first-use order.
    inputs: tuple[str, ...]
    #: Members observable outside the window (external branch or PO port).
    outputs: tuple[str, ...]
    #: Extraction radius the cone was grown with.
    radius: int

    def __str__(self) -> str:
        return (
            f"window[{self.index}] seeds={','.join(self.seeds)} "
            f"{len(self.members)} gates, {len(self.inputs)} in, "
            f"{len(self.outputs)} out"
        )


def _collect_members(
    netlist: Netlist, seed: Gate, radius: int, max_gates: int
) -> list[Gate]:
    """Breadth-first cone growth over fanin and fanout edges."""
    members: dict[int, Gate] = {id(seed): seed}
    queue: deque[tuple[Gate, int]] = deque([(seed, 0)])
    while queue and len(members) < max_gates:
        gate, depth = queue.popleft()
        if depth >= radius:
            continue
        neighbours: list[Gate] = [
            fanin for fanin in gate.fanins if not fanin.is_input
        ]
        neighbours.extend(gate.fanout_gates())
        for neighbour in neighbours:
            if id(neighbour) in members:
                continue
            if len(members) >= max_gates:
                break
            members[id(neighbour)] = neighbour
            queue.append((neighbour, depth + 1))
    return list(members.values())


def recompute_boundary(
    netlist: Netlist, members: list[Gate]
) -> tuple[list[str], list[str]]:
    """From-scratch (inputs, outputs) of a member set — the reference the
    extraction's inline bookkeeping is tested against."""
    member_ids = {id(g) for g in members}
    index = topological_index(netlist)
    ordered = sorted(members, key=lambda g: index[id(g)])
    inputs: dict[str, None] = {}
    outputs: list[str] = []
    for gate in ordered:
        for fanin in gate.fanins:
            if id(fanin) not in member_ids:
                inputs.setdefault(fanin.name)
        external = any(
            id(sink) not in member_ids for sink, _pin in gate.fanouts
        )
        if external or gate.po_names:
            outputs.append(gate.name)
    return list(inputs), outputs


def extract_window(
    netlist: Netlist,
    seed: Gate,
    radius: int,
    max_gates: int,
    index: int = 0,
) -> Window:
    """Grow one window around ``seed`` (a logic gate of ``netlist``)."""
    if seed.is_input:
        raise NetlistError(
            f"window seed {seed.name!r} is a primary input"
        )
    if netlist.gates.get(seed.name) is not seed:
        raise NetlistError(
            f"window seed {seed.name!r} does not belong to {netlist.name!r}"
        )
    if radius < 1:
        raise NetlistError(f"window radius must be >= 1, got {radius}")
    if max_gates < 1:
        raise NetlistError(f"window size must be >= 1, got {max_gates}")
    members = _collect_members(netlist, seed, radius, max_gates)
    topo = topological_index(netlist)
    members.sort(key=lambda g: topo[id(g)])
    inputs, outputs = recompute_boundary(netlist, members)
    return Window(
        index=index,
        seeds=(seed.name,),
        members=tuple(g.name for g in members),
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        radius=radius,
    )


def partition_windows(
    netlist: Netlist, radius: int = 3, max_gates: int = 80
) -> list[Window]:
    """Cover every logic gate with at least one window.

    Seeds are chosen greedily over the topological order: the first gate
    not yet covered by an earlier window seeds the next one.  The result
    is fully determined by the netlist structure — no randomness, no
    dependence on dict iteration or worker count.
    """
    covered: set[str] = set()
    windows: list[Window] = []
    order = [g for g in netlist.gates.values()]
    topo = topological_index(netlist)
    order.sort(key=lambda g: topo[id(g)])
    for gate in order:
        if gate.is_input or gate.name in covered:
            continue
        window = extract_window(
            netlist, gate, radius, max_gates, index=len(windows)
        )
        covered.update(window.members)
        windows.append(window)
    return windows
