"""The S-series rule pack: findings backed by the static fact base.

Unlike the local ``Q0xx`` quality rules, which pattern-match one gate at
a time, every ``S0xx`` finding is a *proven* whole-netlist fact from
:class:`repro.analysis.AnalysisSuite` — a structural fact, or a
simulation-nominated candidate the SAT oracle proved (the proof
provenance is part of each message).  The rules read
:attr:`LintContext.facts` and skip silently when the caller did not
attach a fact base, mirroring how the ``P0xx`` rules treat missing
probabilities.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.rules import (
    CATEGORY_ANALYSIS,
    LintContext,
    Rule,
    register,
)


@register
class StaticallyConstantRule(Rule):
    """A logic gate's output is proven to never change.

    A gate whose simulation signature is all-0 or all-1 is nominated,
    and only the SAT oracle's proof that no input assignment yields the
    other value makes it a fact.  A constant gate burns area and input
    load for a value a tie cell (or rewiring) provides for free.
    Deliberate tie cells are exempt: computing a constant is their job.
    """

    id = "S001"
    title = "gate output proven statically constant"
    severity = Severity.WARNING
    category = CATEGORY_ANALYSIS

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if ctx.facts is None:
            return
        gates = ctx.netlist.gates
        for fact in ctx.facts.constants:
            gate = gates.get(fact.name)
            if gate is None or gate.is_input:
                continue
            if gate.cell is not None and gate.cell.is_constant():
                continue  # a tie cell is constant by design
            yield self.diag(
                f"gate {fact.name!r} always outputs {fact.value} "
                f"(proof: {fact.proof})",
                gate=fact.name,
                suggestion="replace the gate with a tie cell or fold the "
                "constant into its sinks",
            )


@register
class UnobservableConeRule(Rule):
    """A gate's output can never influence any primary output.

    Two proof shapes: ``dead`` gates have no structural path to a PO at
    all (purely graph reachability), while ``blocked`` gates have paths
    that never carry a change: a zero simulation observability mask
    nominates the gate and the SAT flip miter proves that no input
    assignment lets its flip reach an output — a constant side input
    may block every path, or the flip may cancel where paths
    reconverge.  Either way the gate and the cone feeding only it are
    wasted power.
    """

    id = "S002"
    title = "gate proven unobservable at every primary output"
    severity = Severity.WARNING
    category = CATEGORY_ANALYSIS

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if ctx.facts is None:
            return
        gates = ctx.netlist.gates
        for fact in ctx.facts.unobservables:
            if fact.name not in gates:
                continue
            if fact.reason == "dead":
                detail = "no structural path to any primary output"
            else:
                detail = "every path to a primary output is blocked"
            yield self.diag(
                f"gate {fact.name!r} is unobservable: {detail} "
                f"(proof: {fact.proof})",
                gate=fact.name,
                suggestion="remove the gate (and any cone feeding only "
                "it) to save its power and area",
            )


@register
class ProvenDuplicateRule(Rule):
    """Two gates compute the same function (or exact complements).

    Equivalence classes are seeded by structural hashing and packed
    simulation signatures, then confirmed pairwise by the SAT miter —
    a reported pair is *proven* pointwise-identical, not just
    signature-identical.  Duplicates can share one driver; complement
    pairs can share a driver plus one inverter.

    Deliberate phase structure is exempt: primary inputs (nothing to
    remove) and single INV/BUF cells reading their class partner
    directly (that *is* the one inverter the fix would insert; chains
    are S004's finding).
    """

    id = "S003"
    title = "gate proven equivalent to another gate"
    severity = Severity.WARNING
    category = CATEGORY_ANALYSIS

    @staticmethod
    def _is_phase_gate_of(gate, other_name: str) -> bool:
        """Is ``gate`` a lone INV/BUF reading ``other_name`` directly?"""
        if gate.cell is None or not (
            gate.cell.is_inverter() or gate.cell.is_buffer()
        ):
            return False
        return bool(gate.fanins) and gate.fanins[0].name == other_name

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if ctx.facts is None:
            return
        gates = ctx.netlist.gates
        for cls in ctx.facts.equivalences:
            rep_gate = gates.get(cls.representative)
            for member, parity in sorted(cls.members.items()):
                if member == cls.representative or member not in gates:
                    continue
                gate = gates[member]
                if gate.is_input:
                    continue
                if self._is_phase_gate_of(gate, cls.representative) or (
                    rep_gate is not None
                    and self._is_phase_gate_of(rep_gate, member)
                ):
                    continue
                relation = "complement of" if parity else "duplicate of"
                yield self.diag(
                    f"gate {member!r} is a proven {relation} "
                    f"{cls.representative!r} (proof: {cls.proofs.get(member, 'sat')})",
                    gate=member,
                    suggestion=f"rewire fanouts of {member!r} to "
                    f"{cls.representative!r}"
                    + (" through an inverter" if parity else "")
                    + " and drop the duplicate cone",
                )


@register
class InvertiblePhaseChainRule(Rule):
    """A signal is an inverter/buffer chain over a distant root.

    Phase tracking follows INV/BUF cells from each root, recording
    parity and depth.  A chain of depth >= 2 re-buffers a signal that is
    already available (in one phase or the other) closer to the root;
    unless the chain exists for drive strength, its inner stages are
    removable.
    """

    id = "S004"
    title = "inverter/buffer chain of depth >= 2"
    severity = Severity.INFO
    category = CATEGORY_ANALYSIS

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if ctx.facts is None:
            return
        gates = ctx.netlist.gates
        for fact in ctx.facts.phases:
            if fact.depth < 2 or fact.name not in gates:
                continue
            phase = "inverted" if fact.parity else "same-phase"
            yield self.diag(
                f"gate {fact.name!r} is a depth-{fact.depth} "
                f"inverter/buffer chain over {fact.root!r} ({phase})",
                gate=fact.name,
                suggestion=f"read {fact.root!r} "
                + ("through one inverter" if fact.parity else "directly")
                + " unless the chain buffers for drive strength",
            )
