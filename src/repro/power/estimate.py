"""The circuit power estimator (eq. 1) with incremental update.

:class:`PowerEstimator` binds a netlist to a probability engine and maintains
``E(s)`` per stem.  ``total()`` is the paper's power figure ``Σ C(i)·E(i)``;
:meth:`PowerEstimator.physical_power` applies the ``1/2·Vdd²·f`` prefactor
for users who want Watts.

The estimator is the object the optimizer interrogates constantly, so the
hot paths — per-stem contribution and post-move update — avoid whole-circuit
recomputation (§3.3: "the goal is to avoid as much reestimation as
possible").

In pipeline runs the estimator is owned by a
:class:`repro.pipeline.OptimizationContext` (analysis name
``"estimator"``, built lazily from the ``"probability"`` engine) and is
shared across passes until one invalidates it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.netlist.netlist import Gate, Netlist
from repro.power.probability import ProbabilityEngine, SimulationProbability


def transition_probability(p: float) -> float:
    """``E(s) = 2·p·(1-p)`` under temporal independence (§2)."""
    return 2.0 * p * (1.0 - p)


@dataclass(frozen=True)
class PowerReport:
    """Summary of one estimation pass."""

    total: float  # Σ C(i)·E(i)
    num_signals: int
    by_signal: dict  # name -> (C, E, C*E)

    def top_contributors(self, k: int = 10) -> list[tuple[str, float]]:
        ranked = sorted(
            ((name, ce) for name, (_c, _e, ce) in self.by_signal.items()),
            key=lambda item: -item[1],
        )
        return ranked[:k]


class PowerEstimator:
    """Maintains ``Σ C·E`` for a netlist under edits."""

    def __init__(
        self,
        netlist: Netlist,
        engine: ProbabilityEngine | None = None,
        vdd: float = 5.0,
        frequency: float = 20e6,
    ):
        self.netlist = netlist
        self.engine = engine or SimulationProbability(netlist)
        if self.engine.netlist is not netlist:
            raise ValueError("probability engine bound to a different netlist")
        self.vdd = vdd
        self.frequency = frequency

    # ------------------------------------------------------------------
    # Per-signal quantities
    # ------------------------------------------------------------------
    def probability(self, gate: Gate) -> float:
        return self.engine.probability(gate.name)

    def activity(self, gate: Gate) -> float:
        """Transition probability E of the gate's stem.

        Engines that *measure* activities (e.g. the temporal pair-simulation
        engine) are preferred over the temporal-independence formula
        ``E = 2p(1-p)``.
        """
        measured = getattr(self.engine, "activity", None)
        if measured is not None:
            return measured(gate.name)
        return transition_probability(self.engine.probability(gate.name))

    def load(self, gate: Gate) -> float:
        """Capacitive load C of the gate's stem."""
        return self.netlist.load_of(gate)

    def contribution(self, gate: Gate) -> float:
        """This stem's ``C·E`` term."""
        return self.load(gate) * self.activity(gate)

    # ------------------------------------------------------------------
    # Circuit-level quantities
    # ------------------------------------------------------------------
    def total(self) -> float:
        """``Σ_i C(i)·E(i)`` over every stem (the paper's power column)."""
        return sum(self.contribution(g) for g in self.netlist.gates.values())

    def physical_power(self) -> float:
        """Power in Watts: ``1/2 · Vdd² · f · Σ C·E`` (C in farads assumed)."""
        return 0.5 * self.vdd**2 * self.frequency * self.total()

    def report(self) -> PowerReport:
        by_signal = {}
        total = 0.0
        for gate in self.netlist.gates.values():
            c = self.load(gate)
            e = self.activity(gate)
            by_signal[gate.name] = (c, e, c * e)
            total += c * e
        return PowerReport(total=total, num_signals=len(by_signal), by_signal=by_signal)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def update_after_edit(self, roots: Iterable[Gate]) -> list[str]:
        """Refresh probabilities after the netlist changed at ``roots``.

        Mirrors the paper's ``power_estimate_update``: only the transitive
        fanout of the edited stems is re-estimated.  Returns the stem names
        whose probability changed; with a simulation engine, every stem
        whose value words changed.
        """
        return self.engine.update_fanout(roots)

    def refresh(self) -> None:
        self.engine.refresh()
