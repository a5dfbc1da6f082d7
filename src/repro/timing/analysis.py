"""Arrival/required-time computation.

The model is the paper's: a gate's delay is ``τ + R·C_out`` where ``C_out``
is the total capacitance its stem drives.  τ and R are taken as the maximum
over the cell's pins (pins are uniform in genlib ``PIN *`` libraries, so this
is exact there and conservative otherwise).  Primary inputs arrive at time 0
and primary outputs impose their required time on the fanin cone.

:class:`TimingAnalysis` is incremental: after an in-place netlist edit,
:meth:`update_after_edit` re-propagates gate delays and arrival times
through the dirtied fanout cone only, producing floats identical to a
from-scratch rebuild on the same netlist (untouched gates keep delays
computed from identical fanout lists, so every recomputed value sees
bit-equal inputs).  Required times are derived lazily — one backward pass
on first access, invalidated by updates — because only the quick delay
filter and :meth:`what_if` read them, not every edit.

:meth:`what_if` answers "what would the circuit delay be after this
substitution?" without building a trial netlist copy: it takes the gates
that die from the gain's dying region, emulates the rewiring and the load
changes on a virtual overlay graph, and re-derives arrival times only
inside the dirtied region, falling back to committed arrivals elsewhere.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING, Optional

from repro.errors import TimingError
from repro.library.cell import Cell
from repro.netlist.netlist import Gate, Netlist
from repro.netlist.traverse import (
    topological_index,
    topological_order,
    transitive_fanin,
    transitive_fanout,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.transform.substitution import Substitution

_INF = float("inf")


def gate_delay(netlist: Netlist, gate: Gate, extra_load: float = 0.0) -> float:
    """``D(s) = τ(s) + R(s)·C(s)`` for a logic gate (0 for primary inputs)."""
    return _delay(gate.cell, netlist.load_of(gate) + extra_load)


def _delay(cell: Optional[Cell], load: float) -> float:
    """``τ + R·load`` for ``cell``: 0 for a primary input (no cell) and
    for a constant driver (no pins, so no signal transition)."""
    if cell is None or not cell.pins:
        return 0.0
    tau = max(p.tau for p in cell.pins)
    resistance = max(p.resistance for p in cell.pins)
    return tau + resistance * load


class TimingAnalysis:
    """Incremental STA bound to one netlist.

    ``required_limit`` is the delay constraint applied at every primary
    output; ``None`` means "constrain to the computed circuit delay", which
    makes all slacks non-negative by construction.  After in-place netlist
    edits call :meth:`update_after_edit` with the dirtied gates instead of
    constructing a new instance.

    In an optimizer run the instance belongs to the run's
    :class:`repro.pipeline.OptimizationContext` (analysis name
    ``"timing"``, built against the ``"constraint"`` analysis' limit).
    """

    def __init__(self, netlist: Netlist, required_limit: Optional[float] = None):
        self.netlist = netlist
        self.arrival: dict[str, float] = {}
        self.delay_of: dict[str, float] = {}
        self._limit = required_limit
        self._required: Optional[dict[str, float]] = None
        #: Logic gates with no path to an output (infinite required time),
        #: listed each time the required times are derived.
        self._dead: list[Gate] = []
        self._forward_full()

    # ------------------------------------------------------------------
    # Forward pass (arrival times)
    # ------------------------------------------------------------------
    def _forward_full(self) -> None:
        for gate in topological_order(self.netlist):
            d = gate_delay(self.netlist, gate)
            self.delay_of[gate.name] = d
            if gate.is_input or not gate.fanins:
                self.arrival[gate.name] = d if not gate.is_input else 0.0
            else:
                self.arrival[gate.name] = d + max(
                    self.arrival[f.name] for f in gate.fanins
                )
        self.circuit_delay = max(
            (self.arrival[driver.name] for driver in self.netlist.outputs.values()),
            default=0.0,
        )
        self._required = None

    def update_after_edit(self, roots: Iterable[Gate]) -> None:
        """Re-propagate delays and arrivals after an in-place netlist edit.

        ``roots`` must contain every live gate whose fanin list, fanout
        list (i.e. load), or primary-output binding changed — newly added
        gates included.  Gates removed from the netlist are detected by
        absence.  The result is float-identical to rebuilding from scratch.
        """
        live = self.netlist.gates
        for name in [n for n in self.arrival if n not in live]:
            del self.arrival[name]
            del self.delay_of[name]
        order = topological_order(self.netlist)
        index = topological_index(self.netlist)
        dirty = {id(g) for g in roots if g.name in live}
        if dirty:
            changed: set[int] = set()
            for pos in range(min(index[i] for i in dirty), len(order)):
                gate = order[pos]
                known = gate.name in self.arrival
                if id(gate) in dirty or not known:
                    self.delay_of[gate.name] = gate_delay(self.netlist, gate)
                elif not any(id(f) in changed for f in gate.fanins):
                    continue
                d = self.delay_of[gate.name]
                if gate.is_input or not gate.fanins:
                    arrival = 0.0 if gate.is_input else d
                else:
                    arrival = d + max(self.arrival[f.name] for f in gate.fanins)
                if not known or arrival != self.arrival[gate.name]:
                    self.arrival[gate.name] = arrival
                    changed.add(id(gate))
        self.circuit_delay = max(
            (self.arrival[driver.name] for driver in self.netlist.outputs.values()),
            default=0.0,
        )
        self._required = None

    # ------------------------------------------------------------------
    # Backward pass (required times) — lazy
    # ------------------------------------------------------------------
    @property
    def required_limit(self) -> float:
        return self._limit if self._limit is not None else self.circuit_delay

    @property
    def required(self) -> dict[str, float]:
        if self._required is None:
            order = topological_order(self.netlist)
            limit = self.required_limit
            required = {gate.name: _INF for gate in order}
            for driver in self.netlist.outputs.values():
                required[driver.name] = min(required[driver.name], limit)
            for gate in reversed(order):
                req = required[gate.name]
                for fanin in gate.fanins:
                    candidate = req - self.delay_of[gate.name]
                    if candidate < required[fanin.name]:
                        required[fanin.name] = candidate
            self._required = required
            self._dead = [
                g for g in order if not g.is_input and required[g.name] == _INF
            ]
        return self._required

    # ------------------------------------------------------------------
    def slack(self, gate: Gate) -> float:
        """Required minus arrival; negative when the constraint is violated."""
        req = self.required[gate.name]
        if req == _INF:
            # Dead logic: no path to any output; never timing-critical.
            return _INF
        return req - self.arrival[gate.name]

    def meets(self, limit: float, tolerance: float = 1e-9) -> bool:
        return self.circuit_delay <= limit + tolerance

    def critical_path(self) -> list[Gate]:
        """One maximal-arrival path, outputs back to inputs."""
        if not self.netlist.outputs:
            return []
        end = max(
            self.netlist.outputs.values(), key=lambda g: self.arrival[g.name]
        )
        path = [end]
        gate = end
        while gate.fanins:
            gate = max(gate.fanins, key=lambda f: self.arrival[f.name])
            path.append(gate)
        path.reverse()
        return path

    def validate(self) -> None:
        """Internal consistency checks (used by the test-suite)."""
        for gate in self.netlist.gates.values():
            for fanin in gate.fanins:
                if (
                    self.arrival[gate.name]
                    < self.arrival[fanin.name] + self.delay_of[gate.name] - 1e-9
                ):
                    raise TimingError(
                        f"arrival of {gate.name!r} precedes fanin {fanin.name!r}"
                    )

    # ------------------------------------------------------------------
    # What-if analysis (trial delay without a netlist copy)
    # ------------------------------------------------------------------
    def what_if(self, substitution: "Substitution") -> Optional[float]:
        """Circuit delay if ``substitution`` were applied; ``None`` when
        :meth:`~repro.transform.substitution.Substitution.blocker` rejects
        the move, the one rule ``apply_substitution`` raises on.

        Matches ``TimingAnalysis(apply_to_copy(netlist, sub)[0])
        .circuit_delay`` without copying the netlist.  The gates that die
        are the gain's dying region
        (:func:`repro.transform.gain.predict_dying_region`); the rewiring
        and the resulting load changes are emulated on a virtual overlay,
        and arrivals are recomputed only inside the dirtied fanout closure.
        """
        from repro.transform.gain import predict_dying_region
        from repro.transform.substitution import IS3, OS3

        netlist = self.netlist
        if substitution.blocker(netlist) is not None:
            return None
        library = netlist.library
        target = netlist.gate(substitution.target)
        sources = [netlist.gate(s) for s in substitution.source_names()]
        is_os = substitution.is_output_substitution()
        if is_os:
            moved = list(target.fanouts)
            moved_pos = list(target.po_names)
        else:
            sink_name, pin = substitution.branch
            moved = [(netlist.gate(sink_name), pin)]
            moved_pos = []

        # --- the substituting chain (virtual nodes are \x00-tokens) ----
        INV1, INV2, NEW = "\x00inv1", "\x00inv2", "\x00new"
        chain: dict[str, tuple[Cell, list[str]]] = {}
        tie = substitution.reused_tie(netlist)
        head_gate = tie  # the existing gate taking the moved load, if any
        if substitution.is_constant:
            if tie is None:
                chain[NEW] = (library.constant(bool(substitution.constant)), [])
        elif substitution.kind in (OS3, IS3):
            pins = []
            for token, source, inverted in (
                (INV1, substitution.source1, substitution.invert1),
                (INV2, substitution.source2, substitution.invert2),
            ):
                if inverted:
                    chain[token] = (library.inverter(), [source])
                pins.append(token if inverted else source)
            chain[NEW] = (library[substitution.new_cell], pins)
        elif substitution.invert1:
            chain[INV1] = (library.inverter(), [substitution.source1])
        else:
            head_gate = sources[0]
        head = head_gate.name if head_gate is not None else next(reversed(chain))

        # --- which gates die -------------------------------------------
        # A gate with no path to an output has an infinite required time.
        # Only a netlist never swept has such dead logic, and the trial
        # sweep removes it along with whatever the move kills.
        required = self.required
        if moved_pos or any(required[s.name] != _INF for s, _pin in moved):
            # The substituting signal now reaches an output, so dead logic
            # feeding a source (or the reused tie gate) comes back to life;
            # the rest stays dead and seeds the dying-region growth.
            stays: list[Gate] = []
            if self._dead:
                roots = [tie] if tie is not None else sources
                feeds = {id(g) for g in roots + transitive_fanin(netlist, roots)}
                stays = [g for g in self._dead if id(g) not in feeds]
            dead = {
                g.name for g in predict_dying_region(netlist, substitution, stays)
            }
        else:
            # No moved load reaches an output: the chain dies with it and no
            # gate changes liveness, so the trial netlist is this one with
            # its dead logic swept.
            moved, moved_pos, chain, head_gate = [], [], {}, None
            dead = {g.name for g in self._dead}

        # --- trial loads and delay overrides ---------------------------
        moved_pin_load = 0.0
        for sink, sink_pin in moved:
            if sink.name not in dead:
                moved_pin_load += sink.cell.pins[sink_pin].load
        moved_po_load = 0.0
        for po in moved_pos:
            moved_po_load += netlist.output_loads[po]

        # The head drives the moved load and an inverter feeding the
        # inserted gate drives that gate's pin; every pin a chain node
        # presents to a source adds to the source's load.
        chain_load = {head: moved_pin_load + moved_po_load}
        chain_pin: dict[str, float] = {}
        for cell, fanins in chain.values():
            for cell_pin, key in enumerate(fanins):
                if key in chain:
                    chain_load[key] = cell.pins[cell_pin].load
                else:
                    chain_pin[key] = (
                        chain_pin.get(key, 0.0) + cell.pins[cell_pin].load
                    )
        delay_override = {
            token: _delay(cell, chain_load[token])
            for token, (cell, _fanins) in chain.items()
        }

        affected: set[str] = set()
        for name in dead:
            for fanin in netlist.gates[name].fanins:
                if fanin.name not in dead:
                    affected.add(fanin.name)
        if head_gate is not None:
            affected.add(head_gate.name)
        affected.update(chain_pin)
        if not is_os and target.name not in dead:
            affected.add(target.name)

        for name in affected:
            gate = netlist.gates[name]
            load = 0.0
            for s, p in gate.fanouts:
                if s.name in dead or (gate is target and (s, p) in moved):
                    continue
                load += s.cell.pins[p].load
            load += chain_pin.get(name, 0.0)
            if gate is head_gate:
                load += moved_pin_load
            for po in gate.po_names:
                load += netlist.output_loads[po]
            if gate is head_gate:
                load += moved_po_load
            delay_override[name] = _delay(gate.cell, load)

        # --- arrival recomputation over the dirtied closure ------------
        dirty_names = set(affected)
        dirty_names.update(s.name for s, _pin in moved)
        closure = set(dirty_names)
        closure.update(
            g.name
            for g in transitive_fanout(
                netlist, [netlist.gates[n] for n in dirty_names]
            )
        )
        moved_pins: dict[int, set[int]] = {}
        for sink, sink_pin in moved:
            moved_pins.setdefault(id(sink), set()).add(sink_pin)

        arrivals: dict[str, float] = {}

        def trial_fanins(key: str) -> list[str]:
            if key in chain:
                return list(chain[key][1])
            gate = netlist.gates[key]
            moved_here = moved_pins.get(id(gate), set())
            if not moved_here:
                return [f.name for f in gate.fanins]
            return [
                head if i in moved_here else f.name
                for i, f in enumerate(gate.fanins)
            ]

        def compute(root: str) -> None:
            stack: list[str] = [root]
            while stack:
                key = stack[-1]
                if key in arrivals:
                    stack.pop()
                    continue
                if key not in chain and key not in closure:
                    arrivals[key] = self.arrival[key]
                    stack.pop()
                    continue
                gate = None if key in chain else netlist.gates[key]
                if gate is not None and gate.is_input:
                    arrivals[key] = 0.0
                    stack.pop()
                    continue
                deps = trial_fanins(key)
                pending = [d for d in deps if d not in arrivals]
                if pending:
                    stack.extend(pending)
                    continue
                if key in delay_override:
                    d = delay_override[key]
                else:
                    d = self.delay_of[key]
                if not deps:
                    arrivals[key] = d
                else:
                    arrivals[key] = d + max(arrivals[dep] for dep in deps)
                stack.pop()

        best = 0.0
        seen_output = False
        for _po, driver in netlist.outputs.items():
            key = head if (is_os and driver is target) else driver.name
            compute(key)
            value = arrivals[key]
            if not seen_output or value > best:
                best = value
                seen_output = True
        return best if seen_output else 0.0
