"""Independent re-derivation of every emitted fact.

``powder analyze --check-soundness`` (and the Hypothesis suite) cross-
check a :class:`~repro.analysis.facts.NetlistFacts` against an oracle
that shares nothing with the pass that produced it:

- netlists with at most :data:`EXHAUSTIVE_LIMIT` primary inputs are
  checked against **exhaustive simulation** — every input assignment,
  so the check is complete, not probabilistic: constants compare the
  full value word, unobservability checks the packed flip mask
  (``stem_observability``) is identically zero, phase and equivalence
  compare whole words under the claimed parity;
- larger netlists fall back to a **fresh SAT instance** (new Tseitin
  encoding, new solver, a generous conflict budget) asking the same
  for-all questions.

Verdicts are three-valued per fact: confirmed, unsound (a concrete
counterexample exists — this is the failure the suite's
nominate-then-prove design must make impossible), or unverified (SAT
budget ran out; counted separately and not treated as a failure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.netlist.netlist import Netlist
from repro.netlist.simulate import SimState, exhaustive_patterns
from repro.netlist.traverse import po_reachable

from repro.analysis.facts import NetlistFacts
from repro.analysis.oracle import FactOracle

#: Inputs at or below this bound are checked exhaustively.
EXHAUSTIVE_LIMIT = 20


@dataclass
class SoundnessReport:
    """Per-fact verdicts from one independent re-derivation."""

    method: str = ""  # "exhaustive" | "sat"
    checked: int = 0
    confirmed: int = 0
    unverified: int = 0
    #: human-readable descriptions of every unsound fact (empty = sound).
    unsound: List[str] = field(default_factory=list)
    by_category: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.unsound

    def _tally(self, category: str, verdict: Optional[bool], text: str) -> None:
        bucket = self.by_category.setdefault(
            category, {"checked": 0, "confirmed": 0, "unverified": 0, "unsound": 0}
        )
        bucket["checked"] += 1
        self.checked += 1
        if verdict is True:
            bucket["confirmed"] += 1
            self.confirmed += 1
        elif verdict is None:
            bucket["unverified"] += 1
            self.unverified += 1
        else:
            bucket["unsound"] += 1
            self.unsound.append(text)

    def format_text(self) -> str:
        lines = [
            f"soundness check ({self.method}): {self.checked} facts, "
            f"{self.confirmed} confirmed, {self.unverified} unverified, "
            f"{len(self.unsound)} unsound"
        ]
        for category in sorted(self.by_category):
            counts = self.by_category[category]
            lines.append(
                f"  {category:13s} checked {counts['checked']:4d}  "
                f"confirmed {counts['confirmed']:4d}  "
                f"unverified {counts['unverified']:4d}  "
                f"unsound {counts['unsound']:4d}"
            )
        for text in self.unsound:
            lines.append(f"  UNSOUND: {text}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "checked": self.checked,
            "confirmed": self.confirmed,
            "unverified": self.unverified,
            "unsound": list(self.unsound),
            "by_category": self.by_category,
            "ok": self.ok,
        }


def check_soundness(
    netlist: Netlist,
    facts: NetlistFacts,
    conflict_limit: int = 200_000,
) -> SoundnessReport:
    """Re-derive every fact independently; see the module docstring."""
    if len(netlist.input_names) <= EXHAUSTIVE_LIMIT:
        return _check_exhaustive(netlist, facts)
    return _check_sat(netlist, facts, conflict_limit)


def _check_exhaustive(netlist: Netlist, facts: NetlistFacts) -> SoundnessReport:
    report = SoundnessReport(method="exhaustive")
    sim = SimState(netlist, exhaustive_patterns(netlist.input_names))
    word = sim.value
    full = sim.full

    for fact in facts.constants:
        verdict = word(fact.name) == (full if fact.value else 0)
        report._tally(
            "constant", verdict, f"constant {fact.name} == {fact.value}"
        )
    for fact in facts.unobservables:
        gate = netlist.gates[fact.name]
        verdict = sim.stem_observability(gate) == 0
        report._tally(
            "unobservable", verdict, f"unobservable {fact.name} ({fact.reason})"
        )
    for fact in facts.phases:
        expected = word(fact.root)
        if fact.parity:
            expected = expected ^ full
        verdict = word(fact.name) == expected
        report._tally(
            "phase",
            verdict,
            f"phase {fact.name} ~ {fact.root} (parity {fact.parity})",
        )
    for cls in facts.equivalences:
        rep_word = word(cls.representative)
        for name, parity in sorted(cls.members.items()):
            if name == cls.representative:
                continue
            expected = rep_word ^ full if parity else rep_word
            verdict = word(name) == expected
            report._tally(
                "equivalence",
                verdict,
                f"equiv {name} ~ {cls.representative} (parity {parity})",
            )
    return report


def _check_sat(
    netlist: Netlist, facts: NetlistFacts, conflict_limit: int
) -> SoundnessReport:
    report = SoundnessReport(method="sat")
    oracle = FactOracle(netlist, conflict_limit=conflict_limit)
    for fact in facts.constants:
        verdict = oracle.prove_constant(fact.name, fact.value)
        report._tally(
            "constant", verdict, f"constant {fact.name} == {fact.value}"
        )
    reachable = po_reachable(netlist)
    for fact in facts.unobservables:
        if fact.reason == "dead":
            verdict: Optional[bool] = fact.name not in reachable
        else:
            verdict = oracle.prove_unobservable(fact.name)
        report._tally(
            "unobservable", verdict, f"unobservable {fact.name} ({fact.reason})"
        )
    for fact in facts.phases:
        verdict = oracle.prove_equivalent(fact.name, fact.root, fact.parity)
        report._tally(
            "phase",
            verdict,
            f"phase {fact.name} ~ {fact.root} (parity {fact.parity})",
        )
    for cls in facts.equivalences:
        for name, parity in sorted(cls.members.items()):
            if name == cls.representative:
                continue
            verdict = oracle.prove_equivalent(
                name, cls.representative, parity
            )
            report._tally(
                "equivalence",
                verdict,
                f"equiv {name} ~ {cls.representative} (parity {parity})",
            )
    return report
