"""Delay-constraint handling for substitutions (paper §3.4).

The paper discards every substitution that would push the circuit delay past
the user constraint, identifying two mechanisms:

1. the substituting signal arrives later than the substituted signal's
   required time (a brand-new too-long path), and
2. extra fanout load slows the substituting gate, so a previously uncritical
   path through it becomes critical.

:func:`quick_delay_reject` implements (1) plus a slack test for (2) as a fast
filter.  The optimizer's ``check_delay`` runs it first and then takes the
exact verdict from :meth:`TimingAnalysis.what_if
<repro.timing.analysis.TimingAnalysis.what_if>`, which re-times the rewired
netlist in place without copying it.  The filter is not a necessary
condition: it also rejects some moves the exact verdict would accept.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TimingError
from repro.netlist.netlist import Gate, Netlist
from repro.timing.analysis import TimingAnalysis


@dataclass(frozen=True)
class DelayConstraint:
    """An absolute circuit-delay limit."""

    limit: float

    @classmethod
    def from_netlist(cls, netlist: Netlist, slack_percent: float = 0.0) -> "DelayConstraint":
        """Constraint = initial circuit delay scaled by ``1 + slack%/100``.

        ``slack_percent=0`` reproduces the paper's "with delay constraints"
        mode; Figure 6 sweeps this percentage from 0 to 200.
        """
        initial = TimingAnalysis(netlist).circuit_delay
        if slack_percent < 0:
            raise TimingError("slack percentage must be non-negative")
        return cls(limit=initial * (1.0 + slack_percent / 100.0))


def quick_delay_reject(
    timing: TimingAnalysis,
    substituting: Gate,
    substituted: Gate,
    added_load: float,
    new_gate_tau: float = 0.0,
    new_gate_resistance: float = 0.0,
) -> bool:
    """Fast filter: True when the move looks likely to violate timing.

    ``timing`` must have been built with the constraint as its required
    limit, so required times already encode the budget.  ``added_load`` is
    the capacitance newly hung on the substituting stem; for OS3/IS3 the new
    gate's τ/R describe the inserted 2-input cell.

    A True answer is not proof of a violation.  For an input substitution
    ``substituted`` is the stem, whose required time is the minimum over
    all its branches, not the moved branch's own, so a move that a
    :meth:`~repro.timing.analysis.TimingAnalysis.what_if` re-timing would
    accept can be rejected here.
    """
    required_a = timing.required.get(substituted.name)
    if required_a is None:
        return False
    arrival_b = timing.arrival[substituting.name]
    if new_gate_tau or new_gate_resistance:
        # The new gate sits between b (and c) and the substituted fanout;
        # its own delay adds to the path.  Load on the new gate is at least
        # the load the substituted signal drove.
        arrival_b += new_gate_tau + new_gate_resistance * max(
            timing.netlist.load_of(substituted), 0.0
        )
    if arrival_b > required_a + 1e-9:
        return True
    # Mechanism (2): the substituting gate slows by R·ΔC; if that exceeds its
    # slack, some path through it would violate the constraint.
    if added_load > 0.0 and not substituting.is_input and substituting.cell.pins:
        resistance = max(p.resistance for p in substituting.cell.pins)
        slack_b = timing.slack(substituting)
        if slack_b != float("inf") and resistance * added_load > slack_b + 1e-9:
            return True
    return False
