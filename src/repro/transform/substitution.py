"""The substitution move model (Definitions 1 and 2 of the paper).

A :class:`Substitution` is a *description* of a move — it names gates, so it
can be evaluated against a netlist, applied to it, or applied to a copy for
trial checks.  Classes:

- ``OS2(a, b)`` — all fanout of stem ``a`` moves to signal ``b``,
- ``IS2(a@sink.pin, b)`` — one branch of ``a`` moves to ``b``,
- ``OS3(a, cell(b, c))`` — stem ``a`` replaced by a *new* library gate,
- ``IS3(a@sink.pin, cell(b, c))`` — one branch replaced by a new gate.

Substituting with the inverted signal (``invert1``) inserts the library's
inverter in front; OS3/IS3 insert the named 2-input ``new_cell``.  Per the
paper, only cells present in the library may be inserted.

Application performs the rewiring, removes the logic that died (the paper's
``Dom(a)`` region), and reports everything the caller needs to update power
and timing state incrementally.

:meth:`Substitution.blocker` is the one legality rule for a move: it names
why the move cannot be applied to a netlist, or returns ``None``.
:func:`apply_substitution` asks it before touching anything, so a rejected
move leaves the netlist exactly as it was, and every layer that must
predict apply's answer (triage, ``what_if``, the windowed replay) asks the
same method.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import TransformError
from repro.netlist.netlist import Gate, Netlist

OS2 = "OS2"
IS2 = "IS2"
OS3 = "OS3"
IS3 = "IS3"

_CLASSES = (OS2, IS2, OS3, IS3)


def format_candidate_id(
    kind: str,
    target: str,
    source1: str,
    invert1: bool = False,
    branch: Optional[tuple[str, int]] = None,
    source2: Optional[str] = None,
    invert2: bool = False,
    new_cell: Optional[str] = None,
    constant: Optional[int] = None,
) -> str:
    """:meth:`Substitution.candidate_id` of a move with these fields."""
    return "|".join((
        kind,
        target,
        source1,
        "~" if invert1 else "",
        f"{branch[0]}.{branch[1]}" if branch else "",
        source2 or "",
        "~" if invert2 else "",
        new_cell or "",
        "" if constant is None else str(constant),
    ))


@dataclass(frozen=True)
class Substitution:
    """A candidate (or applied) signal substitution."""

    kind: str  # one of OS2 / IS2 / OS3 / IS3
    target: str  # substituted stem gate name ("a")
    source1: str  # substituting signal ("b"); "" for constant substitution
    invert1: bool = False
    # For IS2/IS3: the substituted branch (sink gate name, pin index).
    branch: Optional[tuple[str, int]] = None
    # For OS3/IS3: second source and the inserted 2-input cell.
    source2: Optional[str] = None
    invert2: bool = False
    new_cell: Optional[str] = None
    #: OS2/IS2 substitution by a constant (redundancy removal): the target
    #: or branch is rewired to a library tie cell driving this value.
    constant: Optional[int] = None

    def __post_init__(self):
        if self.kind not in _CLASSES:
            raise TransformError(f"unknown substitution class {self.kind!r}")
        if self.kind in (IS2, IS3) and self.branch is None:
            raise TransformError(f"{self.kind} requires a branch")
        if self.kind in (OS2, OS3) and self.branch is not None:
            raise TransformError(f"{self.kind} must not name a branch")
        if self.kind in (OS3, IS3):
            if self.source2 is None or self.new_cell is None:
                raise TransformError(f"{self.kind} requires source2 and new_cell")
        elif self.source2 is not None or self.new_cell is not None:
            raise TransformError(f"{self.kind} must not carry source2/new_cell")
        if self.constant is not None:
            if self.kind not in (OS2, IS2):
                raise TransformError("constant substitution is OS2/IS2 only")
            if self.constant not in (0, 1):
                raise TransformError("constant must be 0 or 1")
            if self.source1 or self.invert1:
                raise TransformError(
                    "constant substitution must not name a source signal"
                )
        elif not self.source1:
            raise TransformError("substitution requires a source signal")
        if self.target in self.source_names() and (
            self.is_output_substitution() or (self.kind == IS2 and not self.invert1)
        ):
            # Moving a stem's fanout onto a function of the stem closes a
            # loop (onto the stem itself it changes nothing), and a branch
            # rewired to the stem it reads stays as it was.  An inserted
            # inverter or IS3 gate may read the target's stem.
            raise TransformError(
                f"{self.kind} names its target {self.target!r} as a source"
            )

    # ------------------------------------------------------------------
    def candidate_id(self) -> str:
        """Canonical identity string, the optimizer's tie-break key.

        Candidates with equal quick gain are ordered by this string, so a
        run's move sequence depends only on the netlist and the options —
        never on float-comparison quirks, hash seeds, or the incidental
        order candidate generation happened to emit ties in.  The format
        is content-derived and stable across Python versions.
        """
        return format_candidate_id(
            self.kind, self.target, self.source1, self.invert1, self.branch,
            self.source2, self.invert2, self.new_cell, self.constant,
        )

    def is_output_substitution(self) -> bool:
        return self.kind in (OS2, OS3)

    @property
    def is_constant(self) -> bool:
        return self.constant is not None

    def source_names(self) -> tuple[str, ...]:
        if self.constant is not None:
            return ()
        if self.source2 is None:
            return (self.source1,)
        return (self.source1, self.source2)

    def validate_against(self, netlist: Netlist) -> bool:
        """True when every gate, branch and library cell named still exists."""
        if self.target not in netlist.gates:
            return False
        if any(s not in netlist.gates for s in self.source_names()):
            return False
        if self.constant is not None:
            if netlist.library is None or netlist.library.constant(
                bool(self.constant)
            ) is None:
                return False
        if self.branch is not None:
            sink_name, pin = self.branch
            sink = netlist.gates.get(sink_name)
            if sink is None or pin >= len(sink.fanins):
                return False
            if sink.fanins[pin].name != self.target:
                return False
        if self.new_cell is not None:
            if netlist.library is None or self.new_cell not in netlist.library:
                return False
        return True

    def blocker(self, netlist: Netlist) -> Optional[str]:
        """Why the move cannot be applied to ``netlist``; ``None`` when it can.

        The one legality rule for moves.  A move is blocked when it is
        stale (:meth:`validate_against`: a gate, branch, tie cell or
        insertion cell it names is gone), when it inverts a source but the
        library has no inverter, when its insertion cell is not 2-input,
        or when a source is reachable from a rewired sink: wiring the
        source in, directly or through the inserted inverter or gate,
        would close a combinational cycle.  The reachability test is one
        forward walk from the rewired sinks and gives the answer
        :meth:`Netlist.would_create_cycle` gives over every source and
        rewired sink.
        """
        if not self.validate_against(netlist):
            return "stale: it names a gate, branch or cell the netlist lacks"
        library = netlist.library
        if (self.invert1 or self.invert2) and (
            library is None or not any(cell.is_inverter() for cell in library)
        ):
            return "the library has no inverter"
        if self.new_cell is not None and library[self.new_cell].num_inputs != 2:
            return f"cell {self.new_cell!r} is not a 2-input gate"
        gates = netlist.gates
        sources = {id(gates[name]) for name in self.source_names()}
        if self.is_output_substitution():
            stack = [sink for sink, _pin in gates[self.target].fanouts]
        else:
            stack = [gates[self.branch[0]]]
        seen: set[int] = set()
        while sources and stack:
            gate = stack.pop()
            if id(gate) in sources:
                return f"wiring in {gate.name!r} closes a combinational cycle"
            if id(gate) not in seen:
                seen.add(id(gate))
                stack.extend(sink for sink, _pin in gate.fanouts)
        return None

    def reused_tie(self, netlist: Netlist) -> Optional[Gate]:
        """The existing tie gate a constant move rewires its load to.

        :func:`apply_substitution` reuses the first gate of the library's
        tie cell for the constant and instantiates one only when there is
        none; ``None`` then, and for every non-constant move.
        """
        if self.constant is None:
            return None
        cell = netlist.library.constant(bool(self.constant))
        return next((g for g in netlist.logic_gates() if g.cell is cell), None)

    def __str__(self) -> str:
        inv1 = "!" if self.invert1 else ""
        src = str(self.constant) if self.constant is not None else (
            f"{inv1}{self.source1}"
        )
        if self.kind == OS2:
            return f"OS2({self.target} <- {src})"
        if self.kind == IS2:
            sink, pin = self.branch
            return f"IS2({self.target}@{sink}.{pin} <- {src})"
        inv2 = "!" if self.invert2 else ""
        core = f"{self.new_cell}({inv1}{self.source1}, {inv2}{self.source2})"
        if self.kind == OS3:
            return f"OS3({self.target} <- {core})"
        sink, pin = self.branch
        return f"IS3({self.target}@{sink}.{pin} <- {core})"


@dataclass
class AppliedSubstitution:
    """What actually happened when a substitution was performed."""

    substitution: Substitution
    #: Gates added (inverters for inverted sources, the OS3/IS3 cell).
    added: list[str]
    #: Logic gates removed by the dead sweep (the Dom(a) region).
    removed: list[str]
    #: Re-simulation roots: gates whose inputs changed.
    resim_roots: list[str]
    #: Net area change (added minus removed).
    area_delta: float
    #: Surviving gates that lost fanout branches into the removed region —
    #: together with ``resim_roots``, the sources, and the target these form
    #: the dirty set incremental caches must invalidate.
    boundary: list[str] = field(default_factory=list)
    #: The gate now driving the substituted load (source, inverter, new
    #: OS3/IS3 gate, or tie cell); "" when it died in the sweep.
    substituting: str = ""

    def dirty_gate_names(self, netlist: Netlist) -> list[str]:
        """Live gates whose value, fanins, fanouts, or PO binding changed."""
        names = dict.fromkeys(self.resim_roots)
        for name in self.boundary:
            names.setdefault(name)
        for name in self.substitution.source_names():
            names.setdefault(name)
        if self.substituting:
            names.setdefault(self.substituting)
        names.setdefault(self.substitution.target)
        return [n for n in names if n in netlist.gates]


def _effective_source(
    netlist: Netlist, source: Gate, invert: bool, added: list[str]
) -> Gate:
    """The signal to wire in: ``source`` or a fresh inverter on it."""
    if not invert:
        return source
    gate = netlist.add_gate(
        netlist.library.inverter(), [source],
        name=netlist.fresh_name("powder_inv"),
    )
    added.append(gate.name)
    return gate


def apply_substitution(
    netlist: Netlist, substitution: Substitution
) -> AppliedSubstitution:
    """Perform the substitution in place.

    Raises :class:`TransformError` with :meth:`Substitution.blocker`'s
    reason, before any edit, when the move cannot be applied; the
    netlist's gates, area, ``structural_version`` and fresh-name counter
    are then unchanged.
    """
    reason = substitution.blocker(netlist)
    if reason is not None:
        raise TransformError(f"cannot apply {substitution}: {reason}")
    target = netlist.gate(substitution.target)
    area_before = netlist.total_area()
    added: list[str] = []

    if substitution.is_constant:
        substituting = substitution.reused_tie(netlist)
        if substituting is None:
            value = substitution.constant
            substituting = netlist.add_gate(
                netlist.library.constant(bool(value)), [],
                name=netlist.fresh_name(f"powder_tie{value}"),
            )
            added.append(substituting.name)
    elif substitution.kind in (OS3, IS3):
        source = netlist.gate(substitution.source1)
        source2 = netlist.gate(substitution.source2)
        eff1 = _effective_source(netlist, source, substitution.invert1, added)
        eff2 = _effective_source(netlist, source2, substitution.invert2, added)
        new_gate = netlist.add_gate(
            netlist.library[substitution.new_cell], [eff1, eff2],
            name=netlist.fresh_name("powder_g"),
        )
        added.append(new_gate.name)
        substituting = new_gate
    else:
        source = netlist.gate(substitution.source1)
        substituting = _effective_source(
            netlist, source, substitution.invert1, added
        )

    resim_roots: list[str] = list(added)
    if substitution.is_output_substitution():
        netlist.replace_fanouts(target, substituting)
        resim_roots.extend(
            sink.name for sink, _pin in substituting.fanouts
        )
    else:
        sink_name, pin = substitution.branch
        sink = netlist.gate(sink_name)
        netlist.replace_fanin(sink, pin, substituting)
        resim_roots.append(sink.name)

    boundary: list[Gate] = []
    removed = netlist.sweep_dead(boundary=boundary)
    # A removed gate cannot be a re-simulation root.
    live_roots = [n for n in dict.fromkeys(resim_roots) if n in netlist.gates]
    area_delta = netlist.total_area() - area_before
    return AppliedSubstitution(
        substitution=substitution,
        added=[n for n in added if n in netlist.gates],
        removed=removed,
        resim_roots=live_roots,
        area_delta=area_delta,
        boundary=[g.name for g in boundary],
        substituting=(
            substituting.name if substituting.name in netlist.gates else ""
        ),
    )


def apply_to_copy(
    netlist: Netlist, substitution: Substitution, name_suffix: str = "_trial"
) -> tuple[Netlist, AppliedSubstitution]:
    """Apply to a fresh copy (original untouched); for trial checks."""
    trial = netlist.copy(netlist.name + name_suffix)
    applied = apply_substitution(trial, substitution)
    return trial, applied
