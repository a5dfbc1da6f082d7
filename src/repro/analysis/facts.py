"""Typed facts the analysis suite emits and the fact base that holds them.

Every fact is a *proven* global property of the netlist it was computed
on — "for all input assignments" claims, each carrying its provenance:

- ``structural`` — proven by construction (no path to an output, a
  structural duplicate; phase facts carry no tag, every one is
  structural),
- ``sat`` — a simulation-nominated candidate confirmed by an UNSAT
  answer from the incremental oracle.

:class:`NetlistFacts` is what consumers receive: the S-series lint
rules iterate it and ``powder analyze`` serialises it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass(frozen=True)
class ConstantFact:
    """``name`` evaluates to ``value`` for every input assignment."""

    name: str
    value: int
    proof: str  # "sat"

    def to_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "proof": self.proof}


@dataclass(frozen=True)
class UnobservableFact:
    """Flipping ``name`` never changes any primary output.

    ``reason`` is ``"dead"`` (no structural path to a PO) or
    ``"blocked"`` (paths exist, but the SAT flip miter proved that no
    input assignment carries the flip to an output).
    """

    name: str
    reason: str  # "dead" | "blocked"
    proof: str  # "structural" | "sat"

    def to_dict(self) -> dict:
        return {"name": self.name, "reason": self.reason, "proof": self.proof}


@dataclass(frozen=True)
class PhaseFact:
    """``name`` equals ``root`` (parity 0) or its complement (parity 1)
    through a chain of ``depth`` BUF/INV cells."""

    name: str
    root: str
    parity: int
    depth: int

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "root": self.root,
            "parity": self.parity,
            "depth": self.depth,
        }


@dataclass(frozen=True)
class EquivClass:
    """A proven functional-equivalence class.

    ``members`` maps every member (including the representative) to its
    parity relative to the representative; ``proofs`` maps non-seed
    members to how their membership was established.
    """

    representative: str
    members: Dict[str, int]
    proofs: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "representative": self.representative,
            "members": dict(sorted(self.members.items())),
            "proofs": dict(sorted(self.proofs.items())),
        }


@dataclass
class NetlistFacts:
    """Every fact one analysis run produced."""

    netlist_name: str = ""
    constants: List[ConstantFact] = field(default_factory=list)
    unobservables: List[UnobservableFact] = field(default_factory=list)
    phases: List[PhaseFact] = field(default_factory=list)
    equivalences: List[EquivClass] = field(default_factory=list)

    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        return {
            "constants": len(self.constants),
            "unobservables": len(self.unobservables),
            "phases": len(self.phases),
            "equivalences": len(self.equivalences),
        }

    def total(self) -> int:
        return sum(self.counts().values())

    def to_dict(self) -> dict:
        return {
            "netlist": self.netlist_name,
            "counts": self.counts(),
            "constants": [fact.to_dict() for fact in self.constants],
            "unobservables": [fact.to_dict() for fact in self.unobservables],
            "phases": [fact.to_dict() for fact in self.phases],
            "equivalences": [cls.to_dict() for cls in self.equivalences],
        }

    def format_text(self) -> str:
        lines = [f"analysis facts for {self.netlist_name!r}:"]
        counts = self.counts()
        lines.append(
            "  "
            + ", ".join(f"{name}: {count}" for name, count in counts.items())
        )
        for fact in self.constants:
            lines.append(
                f"  constant    {fact.name} == {fact.value}  [{fact.proof}]"
            )
        for fact in self.unobservables:
            lines.append(
                f"  unobservable {fact.name}  ({fact.reason})  [{fact.proof}]"
            )
        for fact in self.phases:
            op = "==" if fact.parity == 0 else "== NOT"
            lines.append(
                f"  phase       {fact.name} {op} {fact.root}"
                f"  (depth {fact.depth})"
            )
        for cls in self.equivalences:
            parts = []
            for name, parity in sorted(cls.members.items()):
                if name == cls.representative:
                    continue
                prefix = "~" if parity else ""
                parts.append(f"{prefix}{name}")
            lines.append(
                f"  equiv       {cls.representative} ~ {{{', '.join(parts)}}}"
            )
        return "\n".join(lines)
