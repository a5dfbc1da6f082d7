"""The built-in rule pack.

Rule families:

- ``N0xx`` — structural invariants the whole system relies on; the
  collect-all restatement of the old ``check_netlist`` plus multi-driver
  detection.  All error severity.
- ``Q0xx`` — structural quality: dead logic, constant-foldable gates,
  double-inverter chains.  Warnings: the netlist still works, but power
  and area are being wasted.
- ``L0xx`` — library contracts: every gate's cell must come from the bound
  library and no stem may exceed its drive limit.
- ``P0xx`` — power data: switching probabilities must be well-formed.

Every rule walks an arbitrarily corrupted netlist without raising; the
messages mirror the historical ``check_netlist`` wording so error text
stays familiar.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.rules import (
    CATEGORY_LIBRARY,
    CATEGORY_POWER,
    CATEGORY_QUALITY,
    LintContext,
    Rule,
    register,
)
from repro.netlist.netlist import Gate, Netlist

#: Slack applied to drive-limit comparisons (floats from genlib parsing).
_LOAD_EPS = 1e-9


# ----------------------------------------------------------------------
# N0xx — structural invariants (error severity)
# ----------------------------------------------------------------------
@register
class GateRegistrationRule(Rule):
    """The registry key and the gate's own name must agree.

    ``Netlist.gates`` maps names to gates; every lookup, rewiring helper,
    and serializer assumes ``gates[n].name == n``.  A mismatch means some
    mutation bypassed ``add_gate``/``rename`` and the two views of the
    netlist have already diverged.
    """

    id = "N001"
    title = "gate registered under a name different from its own"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for name, gate in ctx.netlist.gates.items():
            if gate.name != name:
                yield self.diag(
                    f"gate registered as {name!r} but named {gate.name!r}",
                    gate=name,
                    suggestion="re-register the gate under its own name",
                )


@register
class PrimaryInputRule(Rule):
    """Input gates, and only input gates, appear in the input list.

    Three invariants in one pass: primary inputs have no fanins, every
    input gate is listed in ``netlist.input_names``, and every list
    entry names a registered input gate exactly once.  Simulation
    pattern order and BLIF port order both derive from this list.
    """

    id = "N002"
    title = "primary-input bookkeeping broken"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        netlist = ctx.netlist
        for name, gate in netlist.gates.items():
            if not gate.is_input:
                continue
            if gate.fanins:
                yield self.diag(
                    f"primary input {name!r} has fanins",
                    gate=name,
                    suggestion="clear the fanin list of the input gate",
                )
            if name not in netlist.input_names:
                yield self.diag(
                    f"input gate {name!r} missing from input list",
                    gate=name,
                    suggestion="append the name to netlist.input_names",
                )
        seen: set[str] = set()
        for name in netlist.input_names:
            if name in seen:
                yield self.diag(
                    f"input list names {name!r} more than once", gate=name
                )
                continue
            seen.add(name)
            gate = netlist.gates.get(name)
            if gate is None or not gate.is_input:
                yield self.diag(
                    f"input list entry {name!r} is not an input gate",
                    gate=name,
                    suggestion="drop the entry or register the input gate",
                )


@register
class PinArityRule(Rule):
    """Every cell pin has exactly one driver.

    A gate's fanin list must be as long as its cell's input count —
    shorter means a floating pin, longer means a phantom connection.
    Either way the cell function cannot be evaluated as mapped.
    """

    id = "N003"
    title = "fanin count disagrees with the cell's pin count"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for name, gate in ctx.netlist.gates.items():
            if gate.is_input or gate.cell is None:
                continue
            if gate.cell.num_inputs != len(gate.fanins):
                yield self.diag(
                    f"gate {name!r}: {len(gate.fanins)} fanins for "
                    f"{gate.cell.num_inputs}-input cell {gate.cell.name!r}",
                    gate=name,
                    suggestion="rewire the gate with one driver per cell pin",
                )


@register
class ForeignReferenceRule(Rule):
    """Fanin/fanout edges must stay inside the netlist.

    A connection to a gate object that is not the registered gate of
    that name (deleted, replaced, or from another netlist) keeps stale
    structure alive and silently decouples simulation from the graph
    the traversals see.
    """

    id = "N004"
    title = "fanin/fanout references a gate outside the netlist"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        gates = ctx.netlist.gates
        for name, gate in gates.items():
            for pin, driver in enumerate(gate.fanins):
                if gates.get(driver.name) is not driver:
                    yield self.diag(
                        f"gate {name!r} pin {pin} driven by foreign gate "
                        f"{driver.name!r}",
                        gate=name,
                        pin=pin,
                        suggestion="reconnect the pin to a registered gate",
                    )
            for sink, pin in gate.fanouts:
                if gates.get(sink.name) is not sink:
                    yield self.diag(
                        f"gate {name!r} fans out to foreign gate {sink.name!r}",
                        gate=name,
                        suggestion="drop the fanout branch to the foreign gate",
                    )


@register
class FanoutBookkeepingRule(Rule):
    """Fanin lists and fanout lists are two views of the same edges.

    For every fanin edge ``driver -> (gate, pin)`` the driver's fanout
    list must hold the matching branch, and vice versa.  The power
    estimator walks fanouts while simulation walks fanins; if the views
    disagree, load and activity are computed on different circuits.
    """

    id = "N005"
    title = "fanin and fanout lists disagree"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        gates = ctx.netlist.gates
        for name, gate in gates.items():
            for pin, driver in enumerate(gate.fanins):
                if gates.get(driver.name) is not driver:
                    continue  # N004's finding; don't double-report
                if (gate, pin) not in driver.fanouts:
                    yield self.diag(
                        f"fanout list of {driver.name!r} misses branch to "
                        f"{name!r} pin {pin}",
                        gate=driver.name,
                        suggestion=f"append ({name!r}, {pin}) to the fanout list",
                    )
            for sink, pin in gate.fanouts:
                if gates.get(sink.name) is not sink:
                    continue  # N004's finding
                if pin >= len(sink.fanins) or sink.fanins[pin] is not gate:
                    yield self.diag(
                        f"fanout entry {name!r} -> {sink.name!r} pin {pin} "
                        f"is stale",
                        gate=name,
                        pin=pin,
                        suggestion="remove the stale branch from the fanout list",
                    )


@register
class OutputBindingRule(Rule):
    """Primary-output ports and their drivers must agree both ways.

    A gate claiming a port in ``po_names`` must be the driver recorded
    in ``netlist.outputs`` and vice versa, and every port needs a load
    entry — output load is part of the driver's power and delay.
    """

    id = "N006"
    title = "primary-output binding broken"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        netlist = ctx.netlist
        for name, gate in netlist.gates.items():
            for po in gate.po_names:
                if netlist.outputs.get(po) is not gate:
                    yield self.diag(
                        f"gate {name!r} claims PO {po!r} owned by another "
                        f"driver",
                        gate=name,
                        suggestion="rebind the port with set_output",
                    )
        for po, driver in netlist.outputs.items():
            if netlist.gates.get(driver.name) is not driver:
                yield self.diag(
                    f"PO {po!r} driven by foreign gate",
                    gate=driver.name,
                    suggestion="rebind the port to a registered gate",
                )
            elif po not in driver.po_names:
                yield self.diag(
                    f"driver of PO {po!r} does not list the port",
                    gate=driver.name,
                    suggestion=f"append {po!r} to the driver's po_names",
                )
            if po not in netlist.output_loads:
                yield self.diag(
                    f"PO {po!r} has no load entry",
                    gate=driver.name,
                    suggestion="record the port's load in output_loads",
                )


@register
class MultiDrivenOutputRule(Rule):
    """Each primary output port has exactly one driver.

    Two gates claiming the same port is electrical contention; which
    one a writer or simulator picks is arbitrary, so the netlist has no
    well-defined function.
    """

    id = "N007"
    title = "primary output claimed by more than one driver"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        claims: dict[str, list[str]] = {}
        for name, gate in ctx.netlist.gates.items():
            for po in gate.po_names:
                claims.setdefault(po, []).append(name)
        for po, drivers in claims.items():
            if len(drivers) > 1:
                yield self.diag(
                    f"PO {po!r} claimed by {len(drivers)} drivers: "
                    f"{', '.join(sorted(drivers))}",
                    gate=sorted(drivers)[0],
                    suggestion="keep exactly one driver per output port",
                )


@register
class CombinationalCycleRule(Rule):
    """The gate graph must be acyclic.

    Topological order, simulation, timing, and the static fact base
    assume a DAG.  The DFS here is deliberately fresh (not the cached
    topological order, which may itself be stale on a corrupt netlist)
    and reports one representative gate per detected cycle.
    """

    id = "N008"
    title = "combinational cycle"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        # Fresh DFS over fanin edges — deliberately not the cached
        # topological order, which may be stale on a hand-corrupted netlist.
        state: dict[int, int] = {}  # 0 = on stack, 1 = done
        for root in ctx.netlist.gates.values():
            if id(root) in state:
                continue
            stack: list[tuple[Gate, int]] = [(root, 0)]
            while stack:
                gate, child = stack[-1]
                if child == 0 and state.get(id(gate)) is None:
                    state[id(gate)] = 0
                if child < len(gate.fanins):
                    stack[-1] = (gate, child + 1)
                    nxt = gate.fanins[child]
                    marker = state.get(id(nxt))
                    if marker == 0:
                        yield self.diag(
                            f"combinational cycle through {nxt.name!r}",
                            gate=nxt.name,
                            suggestion="break the loop or register the "
                            "signal as sequential",
                        )
                        return  # one cycle report is enough
                    if marker is None:
                        stack.append((nxt, 0))
                else:
                    state[id(gate)] = 1
                    stack.pop()


# ----------------------------------------------------------------------
# Q0xx — structural quality (warning severity)
# ----------------------------------------------------------------------
@register
class DanglingGateRule(Rule):
    """A logic gate drives neither another gate nor a primary output.

    Dead logic still switches and still burns area.  Usually left over
    from a rewiring that forgot to sweep; ``Netlist.sweep_dead()``
    removes the whole dead cone safely.
    """

    id = "Q001"
    title = "logic gate with no fanout (dead logic)"
    severity = Severity.WARNING
    category = CATEGORY_QUALITY

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for name, gate in ctx.netlist.gates.items():
            if gate.is_input:
                continue
            if not gate.fanouts and not gate.po_names:
                yield self.diag(
                    f"gate {name!r} drives nothing",
                    gate=name,
                    suggestion="remove it with Netlist.sweep_dead()",
                )


@register
class ConstantFoldableRule(Rule):
    """A gate's output is constant by construction.

    Either the mapped cell function itself ignores its inputs, or every
    fanin is a constant tie cell.  Both shapes are local and syntactic —
    the SAT-backed S001 catches the non-obvious ones — and both fold
    away to a tie cell plus rewiring.
    """

    id = "Q002"
    title = "gate computes a constant or is fed only by constants"
    severity = Severity.WARNING
    category = CATEGORY_QUALITY

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for name, gate in ctx.netlist.gates.items():
            if gate.is_input or gate.cell is None:
                continue
            if gate.num_inputs > 0 and gate.cell.function.is_constant():
                yield self.diag(
                    f"gate {name!r}: cell {gate.cell.name!r} computes a "
                    f"constant regardless of its inputs",
                    gate=name,
                    suggestion="replace the gate by a tie cell",
                )
                continue
            if gate.fanins and all(
                not f.is_input and f.cell is not None and f.cell.is_constant()
                for f in gate.fanins
            ):
                yield self.diag(
                    f"gate {name!r} is fed only by constant tie cells",
                    gate=name,
                    suggestion="constant-fold the gate and propagate the value",
                )


@register
class DoubleInverterRule(Rule):
    """Back-to-back inverters cancel.

    INV(INV(x)) == x, so sinks of the second inverter can read the root
    directly; both inverters often die after the rewire.  Kept as a
    syntactic check; S004 generalizes it to arbitrary-depth phase
    chains via the fact base's phase facts.
    """

    id = "Q003"
    title = "inverter driven by another inverter"
    severity = Severity.WARNING
    category = CATEGORY_QUALITY

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for name, gate in ctx.netlist.gates.items():
            if gate.is_input or gate.cell is None:
                continue
            if not gate.cell.is_inverter() or not gate.fanins:
                continue
            driver = gate.fanins[0]
            if driver.is_input or driver.cell is None:
                continue
            if driver.cell.is_inverter() and driver.fanins:
                root = driver.fanins[0]
                yield self.diag(
                    f"double inversion {root.name!r} -> {driver.name!r} -> "
                    f"{name!r}",
                    gate=name,
                    suggestion=f"rewire sinks of {name!r} to {root.name!r}",
                )


# ----------------------------------------------------------------------
# L0xx — library contracts
# ----------------------------------------------------------------------
@register
class UnknownCellRule(Rule):
    """Every mapped gate must instantiate a cell of the bound library.

    A cell name the library does not know — or a lookalike object
    shadowing the library's cell — means area/power/delay numbers come
    from data the library never vouched for.  Skipped when no library
    is bound.
    """

    id = "L001"
    title = "gate instantiates a cell absent from the bound library"
    category = CATEGORY_LIBRARY

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        library = ctx.netlist.library
        if library is None:
            return
        for name, gate in ctx.netlist.gates.items():
            if gate.is_input or gate.cell is None:
                continue
            if gate.cell.name not in library:
                yield self.diag(
                    f"gate {name!r} uses cell {gate.cell.name!r} not in "
                    f"library {library.name!r}",
                    gate=name,
                    suggestion="remap the gate onto a library cell",
                )
            elif library[gate.cell.name] is not gate.cell:
                yield self.diag(
                    f"gate {name!r}: cell {gate.cell.name!r} shadows the "
                    f"library's cell of the same name",
                    gate=name,
                    suggestion="instantiate the cell object owned by the "
                    "bound library",
                )


@register
class DriveLimitRule(Rule):
    """A stem's total load must respect its cell's drive limit.

    Load is the sum of sink pin loads plus output-port loads; the limit
    is the weakest ``max_load`` over the cell's pins.  Exceeding it
    stretches transition times in the delay model and invites glitches.
    """

    id = "L002"
    title = "stem load exceeds the cell's drive limit"
    severity = Severity.WARNING
    category = CATEGORY_LIBRARY

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        netlist = ctx.netlist
        for name, gate in netlist.gates.items():
            if gate.is_input or gate.cell is None or not gate.cell.pins:
                continue
            limit = min(p.max_load for p in gate.cell.pins)
            load = _safe_load(netlist, gate)
            if load is not None and load > limit + _LOAD_EPS:
                yield self.diag(
                    f"gate {name!r} drives {load:.3f} against a max_load "
                    f"of {limit:.3f}",
                    gate=name,
                    suggestion="buffer the stem or duplicate the gate",
                )


# ----------------------------------------------------------------------
# P0xx — power data
# ----------------------------------------------------------------------
@register
class ProbabilityRangeRule(Rule):
    """Measured switching probabilities must lie in [0, 1].

    The power rules and the estimator both consume the caller-supplied
    probability map; a value outside the unit interval (or NaN) means
    the estimation upstream is broken.  Skipped when the caller did not
    attach probabilities.
    """

    id = "P001"
    title = "switching probability outside [0, 1]"
    category = CATEGORY_POWER

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if ctx.probabilities is None:
            return
        for name, p in ctx.probabilities.items():
            if name not in ctx.netlist.gates:
                continue
            if not (0.0 <= p <= 1.0):  # also catches NaN
                yield self.diag(
                    f"signal {name!r} has probability {p!r}",
                    gate=name,
                    suggestion="re-estimate probabilities from a valid "
                    "pattern set",
                )


def _safe_load(netlist: Netlist, gate: Gate) -> float | None:
    """``Netlist.load_of`` that survives corrupt fanout bookkeeping."""
    total = 0.0
    for sink, pin in gate.fanouts:
        if sink.cell is None or pin >= len(sink.cell.pins):
            return None  # N003/N005 territory; no load verdict possible
        total += sink.cell.pins[pin].load
    for po in gate.po_names:
        load = netlist.output_loads.get(po)
        if load is None:
            return None
        total += load
    return total
