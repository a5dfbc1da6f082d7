"""PODEM test generation for stuck-at faults.

:class:`Podem` finds a test for a stuck-at fault (5-valued D-calculus,
objective/backtrace/implication, D-frontier with X-path check), or proves
the fault untestable (= redundant), or aborts at a backtrack limit.

The search makes decisions only at primary inputs (PODEM's defining
trait), runs full multi-valued implication after each decision, and
counts every decision flip as a backtrack against the limit.  Exceeding
the limit raises :class:`~repro.errors.AtpgAbort` — callers treat an
abort as "not proven", exactly like the paper's ``check_candidate``.
Permissibility itself is proven on the miter by the SAT form of ATPG
(:mod:`repro.equiv.checker`, :mod:`repro.transform.permissible`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.atpg.fault import StuckAtFault
from repro.atpg.values import (
    ONE,
    X,
    ZERO,
    eval3,
    eval5,
    is_d_or_dbar,
    pin_settings_allowing,
)
from repro.errors import AtpgAbort, AtpgError
from repro.netlist.netlist import Gate, Netlist
from repro.netlist.traverse import topological_order

#: Default decision-flip budget before the search aborts.
DEFAULT_BACKTRACK_LIMIT = 20000

SAT = "SAT"
UNSAT = "UNSAT"


@dataclass
class PodemResult:
    """Outcome of a PODEM run."""

    status: str  # SAT or UNSAT (aborts raise AtpgAbort instead)
    assignment: dict[str, int] = field(default_factory=dict)  # PI name -> 0/1
    backtracks: int = 0

    @property
    def testable(self) -> bool:
        return self.status == SAT


def _po_depths(netlist: Netlist) -> dict[str, int]:
    """Minimum gate distance from each stem to a primary output."""
    depths: dict[str, int] = {}
    for gate in reversed(topological_order(netlist)):
        best = 0 if gate.po_names else None
        for sink, _pin in gate.fanouts:
            d = depths.get(sink.name)
            if d is not None and (best is None or d + 1 < best):
                best = d + 1
        if best is not None:
            depths[gate.name] = best
    return depths


class Podem:
    """PODEM for one stuck-at fault."""

    def __init__(
        self,
        netlist: Netlist,
        fault: StuckAtFault,
        backtrack_limit: int = DEFAULT_BACKTRACK_LIMIT,
    ):
        self.netlist = netlist
        self.backtrack_limit = backtrack_limit
        self.order = topological_order(netlist)
        self.po_depth = _po_depths(netlist)
        self.pi_values: dict[str, int] = {
            name: X for name in netlist.input_names
        }
        # (pi name, current value, exhausted both polarities?)
        self.decisions: list[tuple[str, int, bool]] = []
        self.backtracks = 0
        self.fault = fault
        self.stem, self.branch = fault.resolve(netlist)
        self.values: dict[str, tuple[int, int]] = {}

    def _decide(self, pi: str, value: int) -> None:
        self.pi_values[pi] = value
        self.decisions.append((pi, value, False))

    def _backtrack(self) -> bool:
        """Undo decisions until one can be flipped; False when exhausted."""
        while self.decisions:
            pi, value, flipped = self.decisions.pop()
            if flipped:
                self.pi_values[pi] = X
                continue
            self.backtracks += 1
            if self.backtracks > self.backtrack_limit:
                raise AtpgAbort(
                    f"backtrack limit {self.backtrack_limit} exceeded"
                )
            flipped_value = 1 - value
            self.pi_values[pi] = flipped_value
            self.decisions.append((pi, flipped_value, True))
            return True
        return False

    def _assignment(self) -> dict[str, int]:
        return {
            name: v for name, v in self.pi_values.items() if v != X
        }

    # ------------------------------------------------------------------
    # Implication
    # ------------------------------------------------------------------
    def _simulate(self) -> None:
        values: dict[str, tuple[int, int]] = {}
        fault = self.fault
        for gate in self.order:
            if gate.is_input:
                v = self.pi_values[gate.name]
                pair = (v, v)
            else:
                fanin_pairs = []
                for pin, fanin in enumerate(gate.fanins):
                    pair_in = values[fanin.name]
                    if (
                        self.branch is not None
                        and self.branch[0] is gate
                        and self.branch[1] == pin
                    ):
                        pair_in = (pair_in[0], fault.value)
                    fanin_pairs.append(pair_in)
                pair = eval5(gate.cell, fanin_pairs)
            if self.branch is None and gate is self.stem:
                pair = (pair[0], fault.value)
            values[gate.name] = pair
        self.values = values

    # ------------------------------------------------------------------
    # Analysis of the implied state
    # ------------------------------------------------------------------
    def _test_found(self) -> bool:
        return any(
            is_d_or_dbar(self.values[driver.name])
            for driver in self.netlist.outputs.values()
        )

    def _activation_value(self) -> int:
        """Good value at the fault site."""
        if self.branch is None:
            return self.values[self.stem.name][0]
        return self.values[self.stem.name][0]

    def _activation_conflict(self) -> bool:
        good = self._activation_value()
        return good != X and good == self.fault.value

    def _d_frontier(self) -> list[Gate]:
        frontier = []
        for gate in self.order:
            if gate.is_input:
                continue
            out = self.values[gate.name]
            if is_d_or_dbar(out):
                continue
            if out[0] != X and out[1] != X:
                continue  # fixed equal pair: effect killed here
            has_d_input = False
            for pin, fanin in enumerate(gate.fanins):
                pair_in = self.values[fanin.name]
                if (
                    self.branch is not None
                    and self.branch[0] is gate
                    and self.branch[1] == pin
                ):
                    pair_in = (pair_in[0], self.fault.value)
                if is_d_or_dbar(pair_in):
                    has_d_input = True
                    break
            if has_d_input:
                frontier.append(gate)
        return frontier

    def _fault_effect_sites(self) -> list[Gate]:
        """Gates whose output currently carries D/D̄ (plus the fault site)."""
        sites = [
            g
            for g in self.order
            if not g.is_input and is_d_or_dbar(self.values[g.name])
        ]
        # The faulty stem itself once activated.
        if is_d_or_dbar(self.values[self.stem.name]):
            sites.append(self.stem)
        return sites

    def _x_path_exists(self, frontier: list[Gate]) -> bool:
        """Some frontier gate reaches a PO through not-yet-blocked gates."""
        target_ids = set()
        stack = list(frontier)
        seen = set()
        while stack:
            gate = stack.pop()
            if id(gate) in seen:
                continue
            seen.add(id(gate))
            if gate.po_names:
                return True
            for sink, _pin in gate.fanouts:
                out = self.values[sink.name]
                blocked = (
                    out[0] != X and out[1] != X and not is_d_or_dbar(out)
                )
                if not blocked:
                    stack.append(sink)
            target_ids.add(id(gate))
        return False

    # ------------------------------------------------------------------
    # Objective and backtrace
    # ------------------------------------------------------------------
    def _propagation_objective(
        self, frontier: list[Gate]
    ) -> Optional[tuple[Gate, int]]:
        """Heuristic objective: drive a frontier gate toward propagation.

        May return None without implying a conflict — the caller then falls
        back to a free-PI decision (pair-encoded X values can hide the
        undetermined part in the faulty component, where backtrace cannot
        follow).
        """
        gate = min(
            frontier, key=lambda g: self.po_depth.get(g.name, 1 << 30)
        )
        pairs = []
        for pin, fanin in enumerate(gate.fanins):
            pair_in = self.values[fanin.name]
            if (
                self.branch is not None
                and self.branch[0] is gate
                and self.branch[1] == pin
            ):
                pair_in = (pair_in[0], self.fault.value)
            pairs.append(pair_in)
        for pin, fanin in enumerate(gate.fanins):
            pair = pairs[pin]
            if is_d_or_dbar(pair) or pair[0] != X:
                continue
            # Pick the value that lets the outputs differ between machines.
            for candidate in (ONE, ZERO):
                goods = [p[0] for p in pairs]
                faults = [p[1] for p in pairs]
                goods[pin] = candidate
                faults[pin] = candidate
                g_out = eval3(gate.cell, goods)
                f_out = eval3(gate.cell, faults)
                differ_possible = not (
                    g_out != X and f_out != X and g_out == f_out
                )
                if differ_possible:
                    return (fanin, candidate)
        return None

    def _free_pi_near(self, gates: list[Gate]) -> Optional[tuple[str, int]]:
        """An unassigned PI from the fanin cones of ``gates`` (or any)."""
        seen: set[int] = set()
        stack = list(gates)
        while stack:
            gate = stack.pop()
            if id(gate) in seen:
                continue
            seen.add(id(gate))
            if gate.is_input:
                if self.pi_values[gate.name] == X:
                    return (gate.name, ONE)
                continue
            stack.extend(gate.fanins)
        for name in self.netlist.input_names:
            if self.pi_values[name] == X:
                return (name, ONE)
        return None

    def _backtrace(self, gate: Gate, value: int) -> Optional[tuple[str, int]]:
        """Walk an objective back to an unassigned primary input."""
        current, target = gate, value
        for _ in range(len(self.netlist.gates) + 1):
            if current.is_input:
                if self.pi_values[current.name] != X:
                    return None
                return (current.name, target)
            goods = []
            for fanin in current.fanins:
                goods.append(self.values[fanin.name][0])
            chosen = None
            for pin, fanin in enumerate(current.fanins):
                if goods[pin] != X:
                    continue
                settings = pin_settings_allowing(
                    current.cell, goods, pin, target
                )
                if settings:
                    chosen = (fanin, settings[0])
                    break
            if chosen is None:
                return None
            current, target = chosen
        raise AtpgError("backtrace exceeded gate count (cycle?)")

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> PodemResult:
        while True:
            self._simulate()
            if self._test_found():
                return PodemResult(SAT, self._assignment(), self.backtracks)
            conflict = False
            objective: Optional[tuple[Gate, int]] = None
            frontier: list[Gate] = []
            if self._activation_conflict():
                conflict = True
            elif self._activation_value() == X:
                objective = (self.stem, 1 - self.fault.value)
            else:
                frontier = self._d_frontier()
                if not frontier or not self._x_path_exists(frontier):
                    conflict = True  # effect provably killed: sound prune
                else:
                    objective = self._propagation_objective(frontier)
            if not conflict:
                step = self._backtrace(*objective) if objective else None
                if step is None:
                    # Heuristics failed (objective unreachable through good
                    # values): fall back to any relevant free PI.  This
                    # keeps the search complete — only provable dead-ends
                    # above are treated as conflicts.
                    near = frontier or [self.stem]
                    step = self._free_pi_near(near)
                if step is None:
                    conflict = True  # all PIs assigned, still no test
                else:
                    self._decide(*step)
                    continue
            if not self._backtrack():
                return PodemResult(UNSAT, {}, self.backtracks)
