"""The exact permissibility check (the paper's ``check_candidate``).

A substitution is permissible iff the modified circuit computes the same
primary-output functions as the original — equivalently, iff the global
function of the substituting signal lies in the permissible-function set of
the substituted signal (§3.2).  The reference check,
:func:`check_candidate`:

1. applies the substitution to a scratch copy,
2. runs the equivalence oracle on the pair: a simulation counterexample
   hunt, a BDD comparison, then the SAT form of ATPG on the CNF miter
   (:func:`~repro.equiv.checker.check_equivalent`).

:class:`TriageChecker` is the front-end the optimizer uses.  It decides
the same question without ever copying the netlist:

1. **Simulation triage** — the substituting signal's patterns are forced
   over the checker's own-pattern simulation of the *current* netlist and
   propagated through the fanout cone; any differing primary-output
   pattern yields an immediate counterexample (stage ``"sim"``).  When
   the netlist has so few inputs that the patterns enumerate every input
   vector (:func:`~repro.netlist.simulate.covering_patterns`), no
   difference is a proof, and the move is ``PERMISSIBLE`` at stage
   ``"sim"``.  The simulation follows each committed move the optimizer
   reports (:meth:`TriageChecker.update_after_edit`) and is rebuilt only
   after an edit nobody reported,
2. **SAT proof** — the other survivors go to an incremental CDCL miter
   (stage ``"sat"``).  One solver serves each structural state of the
   netlist, and it starts empty: before each miter the checker encodes
   the not-yet-encoded transitive fanin of what the miter reads (the
   target, the duplicated gates and the substituting sources), so a
   query never pays for logic it cannot reach and later queries reuse
   the encoded gates.  Only the substitution's fanout cone is
   duplicated against the substituting literal, with ATPG's difference
   chain, and the per-candidate goal clause is activated through an
   assumption literal.  When the conflict budget runs out first the
   verdict is ``ABORTED``.

Return values follow the paper exactly: ``PERMISSIBLE`` only on a *proof*;
a counterexample yields ``NOT_PERMISSIBLE``; an exhausted search budget
(SAT conflicts) yields ``ABORTED``, which callers must treat as not
permissible.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Optional

from repro.equiv.checker import (
    DEFAULT_CONFLICT_LIMIT,
    EQUAL,
    NOT_EQUAL,
    check_equivalent,
)
from repro.kernels.bits import first_pattern
from repro.kernels.packed import packed_view
from repro.netlist.netlist import Gate, Netlist
from repro.netlist.simulate import SimState, covering_patterns
from repro.netlist.traverse import topological_order, transitive_fanout
from repro.sat.cnf import (
    CnfFormula,
    encode_cell,
    encode_fanin_cone,
    encode_rewire_miter,
)
from repro.sat.incremental import SAT as SAT_STATUS
from repro.sat.incremental import UNSAT as UNSAT_STATUS
from repro.sat.incremental import IncrementalSolver
from repro.transform.substitution import Substitution, apply_to_copy

PERMISSIBLE = "permissible"
NOT_PERMISSIBLE = "not-permissible"
ABORTED = "aborted"

#: Default CDCL conflict budget of one triage SAT solve.
TRIAGE_CONFLICT_LIMIT = 20_000


@dataclass
class PermissibilityResult:
    """Verdict of one check, with evidence."""

    status: str
    counterexample: Optional[dict[str, int]] = None
    stage: str = ""
    #: CDCL conflicts spent by the deciding SAT solve (0 when another stage
    #: decided); deterministic, so run traces pin it as
    #: ``atpg_backtracks``.
    backtracks: int = 0

    @property
    def allowed(self) -> bool:
        """True only for proven-permissible moves (abort = not allowed)."""
        return self.status == PERMISSIBLE


def check_candidate(
    netlist: Netlist,
    substitution: Substitution,
    conflict_limit: int = DEFAULT_CONFLICT_LIMIT,
    num_patterns: int = 512,
    seed: int = 7,
    bdd_node_limit: int = 200_000,
) -> PermissibilityResult:
    """Decide whether ``substitution`` preserves the netlist's I/O behaviour.

    A move :meth:`Substitution.blocker` rejects cannot be applied, so it is
    not permissible (stage ``"apply"``); any other is applied to a copy and
    compared with the equivalence oracle.
    """
    if substitution.blocker(netlist) is not None:
        return PermissibilityResult(NOT_PERMISSIBLE, stage="apply")
    trial, _applied = apply_to_copy(netlist, substitution)
    verdict = check_equivalent(
        netlist,
        trial,
        num_patterns=num_patterns,
        seed=seed,
        conflict_limit=conflict_limit,
        bdd_node_limit=bdd_node_limit,
    )
    if verdict.status == EQUAL:
        return PermissibilityResult(
            PERMISSIBLE, stage=verdict.stage, backtracks=verdict.conflicts
        )
    if verdict.status == NOT_EQUAL:
        return PermissibilityResult(
            NOT_PERMISSIBLE,
            verdict.counterexample,
            stage=verdict.stage,
            backtracks=verdict.conflicts,
        )
    return PermissibilityResult(
        ABORTED, stage=verdict.stage, backtracks=verdict.conflicts
    )


class TriageChecker:
    """Simulation-first, SAT-second permissibility for one netlist.

    One instance serves every check against one (mutating) netlist.  Its
    ``num_patterns`` patterns come from
    :func:`~repro.netlist.simulate.covering_patterns`: when the netlist
    has at most ``log2(num_patterns)`` primary inputs they are every
    input vector, so the simulation stage decides each move alone, as a
    counterexample or a proof, and no SAT state is ever built.
    Otherwise one formula + CDCL solver pair is cached per structural
    state and started empty after every edit (validated against the
    identity of the netlist's cached topological order, the same
    coherence protocol as the packed simulation view); each SAT check
    adds the fanin cone its miter reads.  The own-pattern simulation state
    follows the edits reported through :meth:`update_after_edit` by
    re-simulating their fanout, and is rebuilt from scratch when the
    netlist's structural version shows an edit nobody reported.

    ``counters`` tallies triage effectiveness for telemetry:
    ``sim_kills`` (candidates rejected by the simulation stage),
    ``sim_proofs`` (candidates proven by exhaustive simulation),
    ``sat_calls`` / ``sat_proofs`` / ``sat_cex``, and ``fallbacks`` (SAT
    budget exhausted, verdict ``ABORTED``).
    """

    def __init__(
        self,
        netlist: Netlist,
        num_patterns: int = 512,
        seed: int = 7,
        conflict_limit: int = TRIAGE_CONFLICT_LIMIT,
    ):
        self.netlist = netlist
        self.num_patterns = num_patterns
        self.seed = seed
        self.conflict_limit = conflict_limit
        self.counters = {
            "sim_kills": 0,
            "sim_proofs": 0,
            "sat_calls": 0,
            "sat_proofs": 0,
            "sat_cex": 0,
            "fallbacks": 0,
        }
        #: The own-pattern simulation, the netlist structural version it
        #: is current for, and whether its patterns are every input vector.
        self._sim: Optional[SimState] = None
        self._sim_version = -1
        self._exhaustive = False
        self._sat_cache: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Per-netlist-state caches
    # ------------------------------------------------------------------
    def _state_key(self):
        # The cached topo order is dropped on every structural edit, so
        # its list identity names the netlist's structural state.
        return topological_order(self.netlist)

    def _sim_state(self) -> SimState:
        version = self.netlist.structural_version
        if self._sim is None or self._sim_version != version:
            patterns, self._exhaustive = covering_patterns(
                self.netlist.input_names, self.num_patterns, self.seed
            )
            self._sim = SimState(self.netlist, patterns)
            self._sim_version = version
        return self._sim

    def followed_state(self) -> Optional[SimState]:
        """The simulation state if it is current for the netlist, else None."""
        if self._sim_version != self.netlist.structural_version:
            return None
        return self._sim

    def update_after_edit(self, roots: Iterable[Gate], since: int) -> None:
        """Follow one committed edit instead of re-simulating from scratch.

        ``roots`` are the edit's re-simulation roots (the ones the power
        estimator gets) and ``since`` the netlist's ``structural_version``
        before the edit.  A state that was not current at ``since`` missed
        an edit, so it is left for the next check to rebuild.
        """
        if self._sim is None:
            return
        if self._sim_version != since:
            self._sim = None
            return
        self._sim.resimulate_fanout(roots)
        self._sim_version = self.netlist.structural_version

    def _sat_state(self) -> tuple[CnfFormula, IncrementalSolver]:
        """The current state's formula and solver; empty after an edit."""
        key = self._state_key()
        if self._sat_cache is None or self._sat_cache[0] is not key:
            self._sat_cache = (key, CnfFormula(), IncrementalSolver())
        return self._sat_cache[1], self._sat_cache[2]

    # ------------------------------------------------------------------
    def check(self, substitution: Substitution) -> PermissibilityResult:
        """Decide whether ``substitution`` preserves the I/O behaviour.

        A move :meth:`Substitution.blocker` rejects is ``NOT_PERMISSIBLE``
        at stage ``"apply"``, the answer :func:`check_candidate` gives;
        every other move goes to the simulation stage, which decides it
        when its patterns are every input vector, and then to SAT.
        """
        netlist = self.netlist
        if substitution.blocker(netlist) is not None:
            return PermissibilityResult(NOT_PERMISSIBLE, stage="apply")
        if self.num_patterns:
            cex = self._simulation_cex(substitution)
            if cex is not None:
                self.counters["sim_kills"] += 1
                return PermissibilityResult(NOT_PERMISSIBLE, cex, stage="sim")
            if self._exhaustive:
                # The overlay holds the modified circuit's outputs on every
                # input vector, and none differs: equal output functions.
                self.counters["sim_proofs"] += 1
                return PermissibilityResult(PERMISSIBLE, stage="sim")
        return self.sat_verdict(substitution)

    # ------------------------------------------------------------------
    # Stage 1: forced-overlay simulation on the current netlist
    # ------------------------------------------------------------------
    def _simulation_cex(
        self, substitution: Substitution
    ) -> Optional[dict[str, int]]:
        from repro.transform.gain import _overlay_for

        netlist = self.netlist
        sim = self._sim_state()
        packed = packed_view(netlist)
        overlay, _skip = _overlay_for(sim, packed, netlist, substitution)
        values = sim.values
        for po in netlist.outputs:
            driver = netlist.outputs[po].name
            bits = overlay.get(packed.index[driver])
            if bits is None:
                continue
            diff = bits ^ values[driver]
            if diff:
                pattern = first_pattern(diff)
                return {
                    name: (values[name] >> pattern) & 1
                    for name in netlist.input_names
                }
        return None

    # ------------------------------------------------------------------
    # Stage 2: incremental cone-duplicated SAT miter
    # ------------------------------------------------------------------
    def _new_signal_literal(
        self, formula: CnfFormula, solver: IncrementalSolver, substitution
    ) -> int:
        """CNF literal computing the substituting signal."""
        if substitution.is_constant:
            var = formula.new_var()
            solver.ensure_vars(formula.num_vars)
            solver.add_clause(var if substitution.constant else -var)
            return var
        literal = formula.var_of[substitution.source1]
        if substitution.invert1:
            literal = -literal
        if substitution.source2 is None:
            return literal
        literal2 = formula.var_of[substitution.source2]
        if substitution.invert2:
            literal2 = -literal2
        cell = self.netlist.library[substitution.new_cell]
        out = formula.new_var()
        solver.ensure_vars(formula.num_vars)
        encode_cell(solver, out, [literal, literal2], cell)
        return out

    def sat_verdict(self, substitution: Substitution) -> PermissibilityResult:
        """PERMISSIBLE / NOT_PERMISSIBLE, or ABORTED when the budget ran out.

        The SAT stage of :meth:`check`, which asks it only after
        :meth:`Substitution.blocker` and the simulation stage.  Called
        alone on a constant move it is stuck-at test generation
        (:func:`repro.atpg.redundancy.generate_test`): the constant's
        literal is a fixed variable, never a library tie cell.

        Both sides of the miter share the netlist's own encoding:
        :func:`~repro.sat.cnf.encode_rewire_miter` duplicates only the
        gates in ``affected`` (the fanout cone of the rewired point, in
        topological order), reading the substituting literal in place of
        the rewired fanin.  The original side is the transitive fanin of
        the target, ``affected`` and the sources, encoded on demand by
        :func:`~repro.sat.cnf.encode_fanin_cone`.  Exact in both
        directions — every side input the miter reads is constrained by
        the netlist's clauses, never left free, and a primary input
        outside that fanin cannot reach the miter, so a counterexample
        reads 0 there.
        """
        netlist = self.netlist
        target = netlist.gate(substitution.target)
        if substitution.is_output_substitution():
            affected = transitive_fanout(netlist, [target])
        else:
            root = netlist.gate(substitution.branch[0])
            affected = [root] + transitive_fanout(netlist, [root])
        formula, solver = self._sat_state()
        sources = [netlist.gate(name) for name in substitution.source_names()]
        encode_fanin_cone(
            formula, solver, netlist, [target, *affected, *sources]
        )
        new_literal = self._new_signal_literal(formula, solver, substitution)
        activation = encode_rewire_miter(
            formula,
            solver,
            netlist,
            affected,
            substitution.target,
            new_literal,
            substitution.branch,
        )
        if activation is None:
            # No primary output depends on the rewired point.
            return PermissibilityResult(PERMISSIBLE, stage="sat")
        self.counters["sat_calls"] += 1
        result = solver.solve([activation], conflict_limit=self.conflict_limit)
        if result.status == UNSAT_STATUS:
            self.counters["sat_proofs"] += 1
            return PermissibilityResult(
                PERMISSIBLE, stage="sat", backtracks=result.conflicts
            )
        if result.status == SAT_STATUS:
            self.counters["sat_cex"] += 1
            model, var_of = result.model, formula.var_of
            cex = {
                name: int(name in var_of and model.get(var_of[name], False))
                for name in netlist.input_names
            }
            return PermissibilityResult(
                NOT_PERMISSIBLE, cex, stage="sat", backtracks=result.conflicts
            )
        self.counters["fallbacks"] += 1
        return PermissibilityResult(
            ABORTED, stage="sat", backtracks=result.conflicts
        )
