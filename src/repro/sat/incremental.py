"""The package's SAT solver: incremental CDCL (clause learning + assumptions).

The triage permissibility front-end asks many closely-related miter
queries against one netlist state: a shared clause database (the base
Tseitin encoding) plus per-candidate definitional clauses, each query
activated through an assumption literal.  Every learned clause is a
consequence of the monotonically-growing database, so learning persists
across queries — the classic MiniSat incremental interface.  One-shot
callers (the SAT stage of :func:`repro.equiv.checker.check_equivalent`)
load a formula and solve it once.

Features: two-watched-literal unit propagation, first-UIP conflict
analysis with non-chronological backjumping, VSIDS-style activity
ordering, phase saving, geometric restarts, solving under assumptions,
and a conflict budget that answers :data:`UNKNOWN` instead of running
away.  UNSAT equivalence proofs — the common case, since most candidates
surviving the simulation prefilter *are* permissible — need clause
learning to avoid the exponential plateaus plain DPLL hits on
reconvergent miters.

Determinism: every data structure iterates in insertion or index order
and activity ties break toward the lowest variable, so a given clause
sequence always produces the same verdict, model, and conflict count
(run traces pin the latter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.sat.cnf import CnfFormula

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

#: Activity rescale threshold (MiniSat's 1e100 ladder).
_RESCALE = 1e100
_RESCALE_INV = 1e-100
#: Per-conflict activity decay (bump grows by 1/decay instead).
_DECAY = 1.0 / 0.95


@dataclass
class SatResult:
    """One ``solve`` call's verdict; ``model`` is filled only on SAT."""

    status: str
    model: dict[int, bool] = field(default_factory=dict)
    conflicts: int = 0
    decisions: int = 0


class IncrementalSolver:
    """A CDCL solver whose clause database persists across ``solve`` calls.

    Usage::

        solver = IncrementalSolver(base_formula)
        act = formula.new_var(); solver.ensure_vars(formula.num_vars)
        solver.add_clause(-act, *goal_literals)
        result = solver.solve(assumptions=[act])

    ``add_clause`` may only be called between ``solve`` calls (the solver
    always returns at decision level 0).
    """

    def __init__(self, formula: Optional[CnfFormula] = None):
        self.num_vars = 0
        #: Problem and learned clauses; slots 0/1 are the watched literals.
        self.clauses: list[list[int]] = []
        self.watches: dict[int, list[int]] = {}
        # Per-variable state; index 0 unused.
        self.assignment: list[Optional[bool]] = [None]
        self.reason: list[Optional[int]] = [None]
        self.level: list[int] = [0]
        self.phase: list[bool] = [False]
        self.activity: list[float] = [0.0]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self._head = 0
        self.var_inc = 1.0
        self.conflicts = 0
        self.decisions = 0
        self._contradiction = False
        if formula is not None:
            self._load_formula(formula)

    def _load_formula(self, formula: CnfFormula) -> None:
        """Bulk-load a base formula (same semantics as repeated add_clause).

        While no unit clause has been met the per-clause work is inlined —
        no root-value filtering can fire on an empty trail — which makes
        loading a few-thousand-clause Tseitin base several times cheaper.
        """
        self.ensure_vars(formula.num_vars)
        clauses = self.clauses
        watches = self.watches
        for raw in formula.clauses:
            if self.trail or len(raw) < 2:
                # A unit appeared (or this clause is one): full semantics.
                if not self.add_clause(*raw):
                    return
                continue
            unique = dict.fromkeys(raw)
            if len(unique) < 2:
                if not self.add_clause(*raw):
                    return
                continue
            taut = False
            for lit in unique:
                if -lit in unique:
                    taut = True
                    break
            if taut:
                continue
            clause = list(unique)
            for lit in clause:
                if (lit if lit > 0 else -lit) > self.num_vars:
                    self.ensure_vars(abs(lit))
            index = len(clauses)
            clauses.append(clause)
            for watched in (clause[0], clause[1]):
                watch_list = watches.get(watched)
                if watch_list is None:
                    watches[watched] = [index]
                else:
                    watch_list.append(index)

    # ------------------------------------------------------------------
    # Variable / clause management
    # ------------------------------------------------------------------
    def ensure_vars(self, count: int) -> None:
        """Grow the variable tables to cover variables ``1..count``."""
        while self.num_vars < count:
            self.num_vars += 1
            self.assignment.append(None)
            self.reason.append(None)
            self.level.append(0)
            self.phase.append(False)
            self.activity.append(0.0)

    def add_clause(self, *literals: int) -> bool:
        """Add a clause at the root level.

        Returns ``False`` once the database is unsatisfiable at the root
        (every later ``solve`` then answers UNSAT immediately).
        Tautologies and clauses satisfied at the root are dropped; root-
        falsified literals are stripped.
        """
        if self._contradiction:
            return False
        unique = dict.fromkeys(literals)
        for lit in unique:
            if -lit in unique:
                return True  # tautology
        if not self.trail:
            # No root assignments yet: every literal is unassigned, so the
            # per-literal value filtering below cannot fire.  This is the
            # common case while loading a base formula.
            clause = list(unique)
            for lit in clause:
                if (lit if lit > 0 else -lit) > self.num_vars:
                    self.ensure_vars(abs(lit))
        else:
            clause = []
            for lit in unique:
                self.ensure_vars(abs(lit))
                value = self._value(lit)
                if value is True:  # root assignment: permanently satisfied
                    return True
                if value is False:  # permanently falsified literal
                    continue
                clause.append(lit)
        if not clause:
            self._contradiction = True
            return False
        if len(clause) == 1:
            self._enqueue(clause[0], None)
            if self._propagate() is not None:
                self._contradiction = True
                return False
            return True
        index = len(self.clauses)
        self.clauses.append(clause)
        self.watches.setdefault(clause[0], []).append(index)
        self.watches.setdefault(clause[1], []).append(index)
        return True

    # ------------------------------------------------------------------
    # Core machinery
    # ------------------------------------------------------------------
    def _value(self, literal: int) -> Optional[bool]:
        value = self.assignment[abs(literal)]
        if value is None:
            return None
        return value if literal > 0 else not value

    def _enqueue(self, literal: int, reason_index: Optional[int]) -> None:
        var = abs(literal)
        self.assignment[var] = literal > 0
        self.phase[var] = literal > 0
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason_index
        self.trail.append(literal)

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None.

        This is the solver's hottest loop, so literal valuation is inlined
        (``assignment[var]`` plus a sign test instead of :meth:`_value`)
        and per-instance attributes are hoisted into locals.
        """
        trail = self.trail
        watches = self.watches
        clauses = self.clauses
        assignment = self.assignment
        head = self._head
        while head < len(trail):
            falsified = -trail[head]
            head += 1
            watch_list = watches.get(falsified)
            if not watch_list:
                continue
            pos = 0
            end = len(watch_list)
            while pos < end:
                index = watch_list[pos]
                clause = clauses[index]
                # Normalise: the falsified literal sits in slot 1.
                if clause[0] == falsified:
                    clause[0] = clause[1]
                    clause[1] = falsified
                first = clause[0]
                value = assignment[first] if first > 0 else assignment[-first]
                if value is not None:
                    satisfied = value if first > 0 else not value
                    if satisfied:
                        pos += 1
                        continue
                replacement = -1
                for k in range(2, len(clause)):
                    q = clause[k]
                    qv = assignment[q] if q > 0 else assignment[-q]
                    if qv is None or (qv if q > 0 else not qv):
                        replacement = k
                        break
                if replacement >= 0:
                    clause[1] = clause[replacement]
                    clause[replacement] = falsified
                    moved = clause[1]
                    other_list = watches.get(moved)
                    if other_list is None:
                        watches[moved] = [index]
                    else:
                        other_list.append(index)
                    end -= 1
                    watch_list[pos] = watch_list[end]
                    watch_list.pop()
                    continue
                if value is not None:  # first is falsified too: conflict
                    self._head = head
                    return index
                self._enqueue(first, index)
                pos += 1
        self._head = head
        return None

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > _RESCALE:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= _RESCALE_INV
            self.var_inc *= _RESCALE_INV

    def _analyze(self, conflict_index: int) -> tuple[list[int], int]:
        """First-UIP learned clause and its backjump level."""
        learnt: list[int] = [0]  # slot 0 becomes the asserting literal
        seen = [False] * (self.num_vars + 1)
        current = len(self.trail_lim)
        counter = 0
        index = len(self.trail)
        p = 0
        reason_index = conflict_index
        while True:
            for q in self.clauses[reason_index]:
                if q == p:
                    continue  # the literal this reason clause propagated
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] >= current:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                index -= 1
                p = self.trail[index]
                if seen[abs(p)]:
                    break
            counter -= 1
            if counter == 0:
                break
            reason_index = self.reason[abs(p)]
        learnt[0] = -p
        if len(learnt) == 1:
            return learnt, 0
        # Watch a literal of the backjump level in slot 1.
        max_i = 1
        for i in range(2, len(learnt)):
            if self.level[abs(learnt[i])] > self.level[abs(learnt[max_i])]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, self.level[abs(learnt[1])]

    def _record(self, learnt: list[int]) -> None:
        """Install a learned clause; it asserts ``learnt[0]`` right away."""
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        index = len(self.clauses)
        self.clauses.append(learnt)
        self.watches.setdefault(learnt[0], []).append(index)
        self.watches.setdefault(learnt[1], []).append(index)
        self._enqueue(learnt[0], index)

    def _cancel_until(self, target_level: int) -> None:
        if len(self.trail_lim) <= target_level:
            return
        limit = self.trail_lim[target_level]
        for literal in self.trail[limit:]:
            var = abs(literal)
            self.assignment[var] = None
            self.reason[var] = None
        del self.trail[limit:]
        del self.trail_lim[target_level:]
        self._head = len(self.trail)

    def _decide_var(self) -> int:
        assignment = self.assignment
        activity = self.activity
        best = 0
        best_activity = -1.0
        for var in range(1, self.num_vars + 1):
            if assignment[var] is None and activity[var] > best_activity:
                best = var
                best_activity = activity[var]
        return best

    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: int = 100_000,
    ) -> SatResult:
        """Decide the database under the given assumption literals.

        UNSAT means "unsatisfiable under these assumptions"; the database
        itself stays usable for further queries.  ``conflicts`` /
        ``decisions`` on the result count this call only.
        """
        if self._contradiction:
            return SatResult(UNSAT)
        for lit in assumptions:
            self.ensure_vars(abs(lit))
        self.decisions = 0
        conflicts_here = 0
        self._cancel_until(0)
        self._head = 0  # re-sweep the root trail against any new clauses
        restart_at = 100
        restart_step = 100
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if not self.trail_lim:
                    self._contradiction = True
                    return SatResult(
                        UNSAT,
                        conflicts=conflicts_here,
                        decisions=self.decisions,
                    )
                if conflicts_here > conflict_limit:
                    self._cancel_until(0)
                    return SatResult(
                        UNKNOWN,
                        conflicts=conflicts_here,
                        decisions=self.decisions,
                    )
                learnt, back_level = self._analyze(conflict)
                self._cancel_until(back_level)
                self._record(learnt)
                self.var_inc *= _DECAY
                if conflicts_here >= restart_at:
                    restart_step = restart_step * 3 // 2
                    restart_at = conflicts_here + restart_step
                    self._cancel_until(0)
                continue
            # Propagation at fixpoint: (re-)place assumptions, then decide.
            next_decision = 0
            failed = False
            for lit in assumptions:
                value = self._value(lit)
                if value is False:
                    failed = True
                    break
                if value is None:
                    next_decision = lit
                    break
            if failed:
                self._cancel_until(0)
                return SatResult(
                    UNSAT, conflicts=conflicts_here, decisions=self.decisions
                )
            if next_decision == 0:
                var = self._decide_var()
                if var == 0:
                    model = {
                        v: bool(self.assignment[v])
                        for v in range(1, self.num_vars + 1)
                        if self.assignment[v] is not None
                    }
                    self._cancel_until(0)
                    return SatResult(
                        SAT,
                        model,
                        conflicts=conflicts_here,
                        decisions=self.decisions,
                    )
                next_decision = var if self.phase[var] else -var
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(next_decision, None)
