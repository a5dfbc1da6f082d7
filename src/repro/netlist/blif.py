"""BLIF I/O for mapped netlists.

Supported constructs:

- ``.model``, ``.inputs``, ``.outputs``, ``.end`` (with ``\\`` continuation),
- ``.gate <cell> pin=net ... out=net`` — a mapped library gate,
- ``.names`` — only the degenerate forms a mapped netlist needs: constant
  drivers and single-input buffers/inverters (general ``.names`` logic belongs
  to the synthesis front-end, see :mod:`repro.bench.pla`).

Nets that feed primary outputs through a distinct name are connected
directly; a buffer cell is only inserted when the library demands it.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import ParseError
from repro.library.cell import Cell, Library
from repro.netlist.netlist import Gate, Netlist
from repro.netlist.traverse import topological_order


def _logical_lines(text: str) -> list[tuple[int, str]]:
    """Join continuation lines; strip comments; return (lineno, line)."""
    lines: list[tuple[int, str]] = []
    pending = ""
    pending_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip() and not pending:
            continue
        if pending:
            line = pending + " " + line.strip()
            pending = ""
        else:
            pending_line = lineno
        if line.endswith("\\"):
            pending = line[:-1].rstrip()
            continue
        if line.strip():
            lines.append((pending_line, line.strip()))
    if pending:
        lines.append((pending_line, pending))
    return lines


def parse_blif(text: str, library: Library, name: str | None = None) -> Netlist:
    """Parse a mapped BLIF description into a :class:`Netlist`.

    Every net has exactly one driver: a primary input, a ``.gate`` output
    or a ``.names`` output.  A second driver is a :class:`ParseError` at
    its line, naming the net and the line of the first.
    """
    model_name = name or "blif"
    inputs: list[str] = []
    outputs: list[str] = []
    driven_at: dict[str, int] = {}
    # (lineno, cell or None for an alias, fanin nets, output net)
    gate_specs: list[tuple[int, Cell | None, list[str], str]] = []
    names_specs: list[tuple[int, Cell | None, list[str], str]] = []

    def drive(net: str, lineno: int) -> None:
        if net in driven_at:
            raise ParseError(
                f"net {net!r} already driven at line {driven_at[net]}", lineno
            )
        driven_at[net] = lineno

    lines = _logical_lines(text)
    index = 0
    while index < len(lines):
        lineno, line = lines[index]
        index += 1
        tokens = line.split()
        directive = tokens[0]
        if directive == ".model":
            if len(tokens) > 1 and name is None:
                model_name = tokens[1]
        elif directive == ".inputs":
            for net in tokens[1:]:
                drive(net, lineno)
            inputs.extend(tokens[1:])
        elif directive == ".outputs":
            outputs.extend(tokens[1:])
        elif directive == ".gate":
            if len(tokens) < 3:
                raise ParseError("malformed .gate line", lineno)
            cell_name = tokens[1]
            bindings: dict[str, str] = {}
            for pair in tokens[2:]:
                if "=" not in pair:
                    raise ParseError(f"bad pin binding {pair!r}", lineno)
                pin, net = pair.split("=", 1)
                bindings[pin] = net
            if cell_name not in library:
                raise ParseError(f"unknown cell {cell_name!r}", lineno)
            cell = library[cell_name]
            if bindings.keys() != {cell.output, *cell.pin_names}:
                raise _binding_error(cell, bindings, lineno)
            drive(bindings[cell.output], lineno)
            gate_specs.append((
                lineno, cell, [bindings[pin] for pin in cell.pin_names],
                bindings[cell.output],
            ))
        elif directive == ".names":
            nets = tokens[1:]
            rows: list[str] = []
            while index < len(lines) and not lines[index][1].startswith("."):
                rows.append(lines[index][1])
                index += 1
            names_cell = _names_cell(library, nets, rows, lineno)
            drive(nets[-1], lineno)
            names_specs.append((lineno, names_cell, nets[:-1], nets[-1]))
        elif directive == ".end":
            break
        elif directive in (".latch", ".subckt"):
            raise ParseError(f"unsupported construct {directive}", lineno)
        else:
            raise ParseError(f"unknown directive {directive!r}", lineno)

    netlist = Netlist(model_name, library)
    drivers: dict[str, Gate] = {}
    for pi in inputs:
        drivers[pi] = netlist.add_input(pi)

    # Two passes so gates may appear in any order.
    unresolved = gate_specs + names_specs
    progress = True
    while unresolved and progress:
        progress = False
        remaining = []
        for spec in unresolved:
            _lineno, spec_cell, fanin_nets, out_net = spec
            try:
                fanins = [drivers[net] for net in fanin_nets]
            except KeyError:  # a fanin net is not driven yet
                remaining.append(spec)
                continue
            if spec_cell is None:
                # Pure alias: connect the sink nets straight to the source stem.
                drivers[out_net] = fanins[0]
            else:
                drivers[out_net] = netlist.add_gate(spec_cell, fanins, name=out_net)
            progress = True
        unresolved = remaining
    if unresolved:
        raise ParseError(
            f"unresolvable driver for line {unresolved[0][0]} (cycle or missing net)"
        )

    for po in outputs:
        if po not in drivers:
            raise ParseError(f"primary output {po!r} has no driver")
        netlist.set_output(po, drivers[po])
    return netlist


def _binding_error(cell: Cell, bindings: dict[str, str], lineno: int) -> ParseError:
    """Why a ``.gate`` line's pin bindings do not match its cell's pins."""
    extra = set(bindings) - set(cell.pin_names) - {cell.output}
    if extra:
        return ParseError(f"cell {cell.name!r}: unknown pins {sorted(extra)}", lineno)
    pin = next(pin for pin in (cell.output, *cell.pin_names) if pin not in bindings)
    role = "output" if pin == cell.output else "input"
    return ParseError(f"cell {cell.name!r}: {role} {pin!r} unbound", lineno)


def _names_cell(
    library: Library, nets: list[str], rows: list[str], lineno: int
) -> Cell | None:
    """The cell a degenerate mapped ``.names`` block stands for: a constant
    or an inverter, or ``None`` for a single-input buffer (an alias)."""
    if not nets:
        raise ParseError("malformed .names line", lineno)
    *fanin_nets, out_net = nets
    if len(fanin_nets) == 0:
        value = bool(rows and rows[0].strip() == "1")
        cell = library.constant(value)
        if cell is None:
            raise ParseError(
                f"library lacks a constant-{int(value)} cell for {out_net!r}", lineno
            )
        return cell
    if len(fanin_nets) == 1:
        row = rows[0].split() if rows else ["1", "1"]
        if row == ["1", "1"]:
            return None
        if row == ["0", "1"]:
            return library.inverter()
        raise ParseError(f"unsupported .names rows {rows}", lineno)
    raise ParseError(
        ".names with multiple inputs is not a mapped-netlist construct", lineno
    )


def parse_blif_file(path: str | Path, library: Library) -> Netlist:
    path = Path(path)
    return parse_blif(path.read_text(), library, name=path.stem)


def write_blif(netlist: Netlist) -> str:
    """Render a mapped netlist as BLIF ``.gate`` lines."""
    lines = [f".model {netlist.name}"]
    if netlist.input_names:
        lines.append(".inputs " + " ".join(netlist.input_names))
    if netlist.outputs:
        lines.append(".outputs " + " ".join(netlist.outputs))
    # PO ports whose name differs from the driving stem need an alias line.
    for po, driver in netlist.outputs.items():
        if po != driver.name:
            lines.append(f".names {driver.name} {po}")
            lines.append("1 1")
    for gate in topological_order(netlist):
        if gate.is_input:
            continue
        bindings = [
            f"{pin}={fanin.name}"
            for pin, fanin in zip(gate.cell.pin_names, gate.fanins)
        ]
        bindings.append(f"{gate.cell.output}={gate.name}")
        lines.append(f".gate {gate.cell.name} " + " ".join(bindings))
    lines.append(".end")
    return "\n".join(lines) + "\n"
