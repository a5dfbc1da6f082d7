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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.logic.sop import Cover
from repro.netlist.netlist import Netlist
from repro.netlist.traverse import topological_order

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

    ``formula`` holds the Tseitin encoding of ``netlist`` and allocates
    the new variables; ``solver`` receives the clauses.  Every reader of
    ``target`` reads ``literal`` instead — with ``branch=(sink, pin)``
    only that one pin does.  The gates of ``cone`` (the fanout cone of
    the rewired point, in topological order) are duplicated over the
    rewired literals, one XOR difference is added per primary output
    whose driver was duplicated or rewired, and the differences are ORed
    under the returned activation literal: solving under it is UNSAT
    exactly when no input assignment lets the rewiring reach an output.
    ``None`` means no primary output depends on the rewired point.

    Emission order — each cone gate's variable then its clauses, the
    activation variable, the differences in sorted output order — is
    fixed, because CDCL conflict counts (pinned by the golden traces)
    depend on it.
    """
    var_of = formula.var_of

    def fresh() -> int:
        var = formula.new_var()
        solver.ensure_vars(formula.num_vars)
        return var

    copies: dict[str, int] = {}
    for gate in cone:
        literals = []
        for pin, fanin in enumerate(gate.fanins):
            copied = copies.get(fanin.name)
            if copied is not None:
                literals.append(copied)
            elif (
                fanin.name == target
                if branch is None
                else gate.name == branch[0] and pin == branch[1]
            ):
                literals.append(literal)
            else:
                literals.append(var_of[fanin.name])
        out = fresh()
        encode_cell(solver, out, literals, gate.cell)
        copies[gate.name] = out
    activation = fresh()
    diff_vars = []
    for po in sorted(netlist.outputs):
        driver = netlist.outputs[po].name
        new_side = copies.get(driver)
        if new_side is None and branch is None and driver == target:
            new_side = literal
        if new_side is None:
            continue  # this output's cone is untouched
        diff = fresh()
        encode_xor(solver, diff, var_of[driver], new_side)
        diff_vars.append(diff)
    if not diff_vars:
        return None
    solver.add_clause(-activation, *diff_vars)
    return activation


def tseitin_encode(
    netlist: Netlist, formula: Optional[CnfFormula] = None, prefix: str = ""
) -> CnfFormula:
    """Encode the netlist's consistency constraints into CNF.

    Every stem gets the variable ``formula.var_of[prefix + name]``.  With a
    shared ``formula`` and distinct prefixes two netlists can share input
    variables (name the inputs without the prefix first).
    """
    formula = formula or CnfFormula()
    for gate in topological_order(netlist):
        key = prefix + gate.name if not gate.is_input else gate.name
        if key not in formula.var_of:
            formula.new_var(key)
    for gate in topological_order(netlist):
        if gate.is_input:
            continue
        out = formula.var_of[prefix + gate.name]
        fanin_vars = [
            formula.var_of[
                f.name if f.is_input else prefix + f.name
            ]
            for f in gate.fanins
        ]
        if not gate.fanins:  # tie cell
            value = gate.cell.function.bits & 1
            formula.assume(out if value else -out)
            continue
        encode_cell(formula, out, fanin_vars, gate.cell)
    return formula


def miter_cnf(left: Netlist, right: Netlist) -> CnfFormula:
    """CNF satisfiable iff the circuits differ on some input vector.

    Shares primary-input variables, encodes both netlists, and constrains
    at least one output pair to differ (XOR via auxiliary variables).
    """
    formula = CnfFormula()
    for pi in left.input_names:
        formula.new_var(pi)
    tseitin_encode(left, formula, prefix="L.")
    tseitin_encode(right, formula, prefix="R.")
    diff_vars = []
    for po in sorted(left.outputs):
        l_var = formula.var_of["L." + left.outputs[po].name] if not left.outputs[po].is_input else formula.var_of[left.outputs[po].name]
        r_driver = right.outputs[po]
        r_var = formula.var_of["R." + r_driver.name] if not r_driver.is_input else formula.var_of[r_driver.name]
        d = formula.new_var(f"diff.{po}")
        encode_xor(formula, d, l_var, r_var)
        diff_vars.append(d)
    formula.add_clause(*diff_vars)
    return formula
