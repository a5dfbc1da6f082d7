"""The SAT confirmation oracle behind the analysis facts.

One :class:`FactOracle` owns a Tseitin encoding of the whole netlist
plus an incremental CDCL solver (its constant and equivalence queries
read gates all over the netlist, so unlike triage it does not encode
cone by cone) and answers the three queries the analyses need:

- ``prove_constant(name, value)`` — UNSAT of the opposite literal,
- ``prove_equivalent(a, b, parity)`` — UNSAT of an XOR difference
  variable (reused per pair, so the antiphase query is one more
  ``solve`` on the same clauses),
- ``prove_unobservable(name)`` — the flip miter: the rewire miter of
  :func:`~repro.sat.cnf.encode_rewire_miter` (the one triage uses) with
  the gate's literal *inverted* at the rewired point, so UNSAT means no
  input assignment lets the flip reach any output.  Its difference
  chain's excitation variable is always true.

Every query runs under a conflict limit; UNKNOWN means "not proven" and
the caller must drop the candidate — budget exhaustion can only lose
facts, never fabricate them.  All proofs are against the netlist state
the oracle was built on; the suite rebuilds the oracle whenever the
structural state key changes.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.netlist.netlist import Netlist
from repro.netlist.traverse import transitive_fanout
from repro.sat.cnf import encode_rewire_miter, encode_xor, tseitin_encode
from repro.sat.incremental import IncrementalSolver


class FactOracle:
    """Incremental SAT queries over one structural netlist state."""

    def __init__(self, netlist: Netlist, conflict_limit: int = 50_000):
        self.netlist = netlist
        self.conflict_limit = conflict_limit
        self.formula = tseitin_encode(netlist)
        self.solver = IncrementalSolver(self.formula)
        #: query tallies for telemetry / reports.
        self.counters: Dict[str, int] = {
            "solve_calls": 0,
            "proofs": 0,
            "refuted": 0,
            "unknown": 0,
        }
        self._diff_vars: Dict[Tuple[str, str], int] = {}
        self._flip_vars: Dict[str, Optional[int]] = {}

    # ------------------------------------------------------------------
    def _solve(self, assumptions) -> Optional[bool]:
        """True = proven (UNSAT), False = refuted (SAT), None = budget."""
        self.counters["solve_calls"] += 1
        result = self.solver.solve(
            assumptions, conflict_limit=self.conflict_limit
        )
        if result.status == "unsat":
            self.counters["proofs"] += 1
            return True
        if result.status == "sat":
            self.counters["refuted"] += 1
            return False
        self.counters["unknown"] += 1
        return None

    def var(self, name: str) -> int:
        return self.formula.var_of[name]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def prove_constant(self, name: str, value: int) -> Optional[bool]:
        """Is ``name`` equal to ``value`` for every input assignment?"""
        literal = self.var(name)
        return self._solve([-literal if value else literal])

    def prove_equivalent(
        self, a: str, b: str, parity: int
    ) -> Optional[bool]:
        """Is ``a == b`` (parity 0) / ``a == not b`` (parity 1) always?"""
        key = (a, b) if a <= b else (b, a)
        diff = self._diff_vars.get(key)
        if diff is None:
            diff = self.formula.new_var()
            self.solver.ensure_vars(self.formula.num_vars)
            encode_xor(self.solver, diff, self.var(key[0]), self.var(key[1]))
            self._diff_vars[key] = diff
        # Equality is "diff never 1"; antiphase is "diff never 0".
        return self._solve([diff if parity == 0 else -diff])

    def prove_unobservable(self, name: str) -> Optional[bool]:
        """Can flipping ``name``'s value ever change a primary output?

        Encodes the flip miter once per gate (cached): the shared rewire
        miter with every reader of ``name`` reading ``-var(name)``, its
        per-PO differences ORed under an activation literal so
        refutations stay incremental.
        """
        if name not in self._flip_vars:
            netlist = self.netlist
            self._flip_vars[name] = encode_rewire_miter(
                self.formula,
                self.solver,
                netlist,
                transitive_fanout(netlist, [netlist.gates[name]]),
                name,
                -self.var(name),
            )
        activation = self._flip_vars[name]
        if activation is None:
            # No PO structurally depends on the gate: the flip reaches
            # nothing, which is a (stronger, structural) proof.
            return True
        return self._solve([activation])
