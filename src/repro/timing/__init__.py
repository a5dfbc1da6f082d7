"""Static timing analysis under the paper's linear delay model.

``D(s) = τ(s) + C(s)·R(s)`` per gate (§2); arrival times propagate from
primary inputs, required times from the output constraint, the circuit delay
is the latest primary-output arrival.  :mod:`repro.timing.constraints`
implements the substitution delay check of §3.4.
"""

from repro.timing.analysis import TimingAnalysis, gate_delay
from repro.timing.constraints import DelayConstraint

__all__ = [
    "TimingAnalysis",
    "gate_delay",
    "DelayConstraint",
]
