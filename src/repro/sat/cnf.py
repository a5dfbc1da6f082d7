"""CNF formulas and Tseitin encoding of netlists.

Variables are positive integers; literals are signed integers in the DIMACS
convention (``-v`` = negation of ``v``).  :func:`tseitin_encode` produces
one variable per stem and the standard consistency clauses per gate, derived
generically from each cell's irredundant SOP and its complement's SOP:

    output <-> F(inputs)
    encoded as   (¬out ∨ F-term-clauses)  and  (out ∨ ¬F-minterm-clauses)

via the two-sided cube translation: for every cube c of F,
``c → out`` (one clause); for every cube d of ¬F, ``d → ¬out``.
Together these force ``out = F`` exactly.

Every gate's clauses come from one emitter, :func:`encode_gate`: the
whole-netlist :func:`tseitin_encode`, the two sides of :func:`miter_cnf`
and :func:`encode_fanin_cone`, which encodes only the part of a netlist a
query reads, all call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.logic.sop import Cover
from repro.netlist.netlist import Gate, Netlist
from repro.netlist.traverse import topological_index, topological_order

# Per-cell-function clause templates, shared across encodings.
_TEMPLATE_CACHE: dict[tuple[int, int], tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]] = {}


@dataclass
class CnfFormula:
    """A CNF over integer variables with a name map for circuit signals."""

    num_vars: int = 0
    clauses: list[tuple[int, ...]] = field(default_factory=list)
    var_of: dict[str, int] = field(default_factory=dict)

    def new_var(self, name: Optional[str] = None) -> int:
        self.num_vars += 1
        if name is not None:
            self.var_of[name] = self.num_vars
        return self.num_vars

    def add_clause(self, *literals: int) -> None:
        self.clauses.append(tuple(literals))

    def assume(self, literal: int) -> None:
        """Add a unit clause."""
        self.add_clause(literal)

    def evaluate(self, assignment: dict[int, bool]) -> bool:
        """Check a complete assignment against every clause (testing aid)."""
        for clause in self.clauses:
            if not any(
                assignment.get(abs(lit), False) == (lit > 0)
                for lit in clause
            ):
                return False
        return True


def cell_templates(cell):
    """(onset cubes, offset cubes) of a cell's function, as literal lists.

    Cached per function; :func:`encode_cell` instantiates them against
    whatever literals a gate or a duplicated cone cell reads.
    """
    table = cell.function
    key = (table.nvars, table.bits)
    cached = _TEMPLATE_CACHE.get(key)
    if cached is not None:
        return cached

    def cube_list(cover: Cover):
        cubes = []
        for cube in cover.cubes:
            cubes.append(tuple(cube.literals()))
        return tuple(cubes)

    onset = Cover.from_truthtable(table)
    while onset.merge_distance_one():
        pass
    onset.remove_contained()
    offset = Cover.from_truthtable(~table)
    while offset.merge_distance_one():
        pass
    offset.remove_contained()
    result = (cube_list(onset), cube_list(offset))
    _TEMPLATE_CACHE[key] = result
    return result


def encode_cell(sink, out: int, fanin_literals: Sequence[int], cell) -> None:
    """Add the clauses forcing ``out <-> cell(fanin_literals)`` to ``sink``.

    ``sink`` is anything with ``add_clause(*literals)`` — a
    :class:`CnfFormula` or an :class:`~repro.sat.incremental.IncrementalSolver`.
    Fanin literals are signed, so a cell can read a negated signal.  The
    onset clauses come first, each cube's literals in template order, so
    every encoder emits the same clause sequence (CDCL conflict counts
    depend on it).
    """
    onset, offset = cell_templates(cell)
    # cube holds -> out is 1:   (¬lit1 ∨ ... ∨ out)
    for cube in onset:
        clause = [out]
        for var, polarity in cube:
            literal = fanin_literals[var]
            clause.append(-literal if polarity else literal)
        sink.add_clause(*clause)
    # offset cube holds -> out is 0.
    for cube in offset:
        clause = [-out]
        for var, polarity in cube:
            literal = fanin_literals[var]
            clause.append(-literal if polarity else literal)
        sink.add_clause(*clause)


def encode_xor(sink, out: int, a: int, b: int) -> None:
    """Add the four clauses forcing ``out <-> (a xor b)`` to ``sink``."""
    sink.add_clause(-out, a, b)
    sink.add_clause(-out, -a, -b)
    sink.add_clause(out, -a, b)
    sink.add_clause(out, a, -b)


def encode_rewire_miter(
    formula: CnfFormula,
    solver,
    netlist: Netlist,
    cone: Sequence,
    target: str,
    literal: int,
    branch: Optional[tuple[str, int]] = None,
) -> Optional[int]:
    """Encode "rewiring ``target`` to ``literal`` changes some output".

    ``formula`` names the variables of ``netlist``'s encoded gates and
    allocates the new ones; ``solver`` receives the clauses.  Every
    reader of ``target`` reads ``literal`` instead — with
    ``branch=(sink, pin)`` only that one pin does.  The gates of ``cone``
    (the fanout cone of the rewired point, in topological order) are
    duplicated over the rewired literals, and their originals must be
    encoded.  Solving under the returned activation literal is UNSAT
    exactly when no input assignment lets the rewiring reach an output;
    ``None`` means no primary output depends on the rewired point.

    The miter carries ATPG's difference chain (Larrabee, "Test Pattern
    Generation Using Boolean Satisfiability", IEEE TCAD 1992):

    - an excitation variable ``x <-> v(target) xor literal``;
    - per duplicated gate ``g`` with copy ``c_g`` a difference variable
      ``d_g <-> v_g xor c_g``, and the clause ``d_g -> x or d_f ...``
      over the rewired pin (``x``) and the duplicated fanins ``f`` that
      ``g`` reads: a gate can only differ when one of its inputs does;
    - each output's difference is its driver's ``d_g``, or ``x`` for an
      output the rewired stem drives, and the differences are ORed under
      the activation literal.

    Every chain clause holds under the circuit's own values, so the
    verdict is exact either way; it lets propagation rule out a cone
    gate no difference can reach.  Emission order — ``x`` and its
    clauses; per cone gate its copy's variable and clauses, then ``d_g``,
    its clauses and its chain clause; the activation variable; the goal
    clause over the outputs in sorted order — is fixed, because CDCL
    conflict counts (pinned by the golden traces) depend on it.
    """
    var_of = formula.var_of

    def fresh() -> int:
        var = formula.new_var()
        solver.ensure_vars(formula.num_vars)
        return var

    excitation = fresh()
    encode_xor(solver, excitation, var_of[target], literal)
    copies: dict[str, int] = {}
    diffs: dict[str, int] = {}
    for gate in cone:
        literals = []
        differing_inputs = []
        for pin, fanin in enumerate(gate.fanins):
            copied = copies.get(fanin.name)
            if copied is not None:
                literals.append(copied)
                differing_inputs.append(diffs[fanin.name])
            elif (
                fanin.name == target
                if branch is None
                else gate.name == branch[0] and pin == branch[1]
            ):
                literals.append(literal)
                differing_inputs.append(excitation)
            else:
                literals.append(var_of[fanin.name])
        out = fresh()
        encode_cell(solver, out, literals, gate.cell)
        copies[gate.name] = out
        diff = fresh()
        encode_xor(solver, diff, var_of[gate.name], out)
        solver.add_clause(-diff, *differing_inputs)
        diffs[gate.name] = diff
    activation = fresh()
    goal = []
    for po in sorted(netlist.outputs):
        driver = netlist.outputs[po].name
        diff = diffs.get(driver)
        if diff is None and branch is None and driver == target:
            diff = excitation
        if diff is not None:
            goal.append(diff)  # otherwise this output's cone is untouched
    if not goal:
        return None
    solver.add_clause(-activation, *goal)
    return activation


def tseitin_encode(netlist: Netlist) -> CnfFormula:
    """Encode the netlist's consistency constraints into a new CNF.

    Every stem gets the variable ``formula.var_of[name]``: first one
    variable per stem in topological order, then each gate's clauses in
    the same order (CDCL conflict counts depend on it).
    """
    formula = CnfFormula()
    _encode_gates(netlist, formula, formula.var_of)
    return formula


def encode_gate(sink, gate: Gate, var: Callable[[Gate], int]) -> None:
    """Add the consistency clauses of ``gate`` to ``sink``.

    ``var`` maps a gate to its variable.  A tie cell (no fanins) is one
    unit clause; any other cell goes through :func:`encode_cell`.  The
    one per-gate emitter of every netlist encoding in the package.
    """
    out = var(gate)
    if not gate.fanins:  # tie cell
        value = gate.cell.function.bits & 1
        sink.add_clause(out if value else -out)
        return
    encode_cell(sink, out, [var(f) for f in gate.fanins], gate.cell)


def _encode_gates(
    netlist: Netlist, formula: CnfFormula, gate_var: dict[str, int]
) -> None:
    """Tseitin-encode ``netlist`` into ``formula``.

    Primary inputs take (or add) ``formula.var_of[name]``, so encodings
    sharing one formula share their inputs; every other gate takes (or
    adds) ``gate_var[name]``.
    """
    order = topological_order(netlist)
    for gate in order:
        names = formula.var_of if gate.is_input else gate_var
        if gate.name not in names:
            names[gate.name] = formula.new_var()

    def var(gate) -> int:
        return (formula.var_of if gate.is_input else gate_var)[gate.name]

    for gate in order:
        if not gate.is_input:
            encode_gate(formula, gate, var)


def encode_fanin_cone(
    formula: CnfFormula, solver, netlist: Netlist, roots: Iterable[Gate]
) -> None:
    """Encode the unencoded transitive fanin of ``roots``, roots included.

    A gate is encoded once ``formula.var_of`` names it, so the encoded
    part of ``netlist`` is always closed under fanin: a query reads only
    signals it fully defines, and a primary input outside it cannot
    reach the query.  The new gates take their variables in topological
    order, then their clauses go to ``solver`` in the same order, as
    :func:`tseitin_encode` does for a whole netlist.
    """
    var_of = formula.var_of
    new: dict[int, Gate] = {}
    stack = [gate for gate in roots if gate.name not in var_of]
    while stack:
        gate = stack.pop()
        if id(gate) in new:
            continue
        new[id(gate)] = gate
        stack.extend(f for f in gate.fanins if f.name not in var_of)
    if not new:
        return
    index = topological_index(netlist)
    order = sorted(new.values(), key=lambda gate: index[id(gate)])
    for gate in order:
        formula.new_var(gate.name)
    solver.ensure_vars(formula.num_vars)

    def var(gate) -> int:
        return var_of[gate.name]

    for gate in order:
        if not gate.is_input:
            encode_gate(solver, gate, var)


def miter_cnf(left: Netlist, right: Netlist) -> CnfFormula:
    """CNF satisfiable iff the circuits differ on some input vector.

    Shares primary-input variables, encodes both netlists, and constrains
    at least one output pair to differ (XOR via auxiliary variables).
    ``var_of`` names only the primary inputs: each side's gates and the
    difference variables are kept out of it, so no signal name can alias
    another side's gate or a difference.
    """
    formula = CnfFormula()
    for pi in left.input_names:
        formula.new_var(pi)
    sides = []
    for netlist in (left, right):
        gate_var: dict[str, int] = {}
        _encode_gates(netlist, formula, gate_var)
        sides.append(gate_var)
    diff_vars = []
    for po in sorted(left.outputs):
        pair = []
        for netlist, gate_var in zip((left, right), sides):
            driver = netlist.outputs[po]
            pair.append(
                formula.var_of[driver.name]
                if driver.is_input
                else gate_var[driver.name]
            )
        d = formula.new_var()
        encode_xor(formula, d, *pair)
        diff_vars.append(d)
    formula.add_clause(*diff_vars)
    return formula
