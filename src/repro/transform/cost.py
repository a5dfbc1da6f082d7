"""Pluggable objective cost models for the optimization loop.

The paper's loop (Figure 5) accepts a substitution when it improves the
*objective* — power for POWDER itself, area for the redundancy
addition/removal engine of ref [2], delay for the clause-analysis engine
of ref [5].  Historically the optimizer branched on an ``objective``
string; each branch is now a :class:`CostModel` the loop calls through,
so new objectives plug in without touching the loop:

- :meth:`CostModel.score` — how much the candidate improves the
  objective on the *current* netlist (higher is better; ``-inf`` marks a
  candidate that can never apply),
- :meth:`CostModel.floor` — the minimum score the loop accepts (the
  paper stops at "no reduction").

``resolve_cost_model`` maps an ``OptimizeOptions.objective`` value — a
registered name or a :class:`CostModel` instance — to the model the
loop uses.  Third parties register new objectives with
:func:`register_cost_model`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.transform.candidates import Candidate
    from repro.transform.optimizer import PowerOptimizer


class CostModel:
    """One optimization objective, scored per candidate substitution."""

    #: Registry key and the value recorded in run traces.
    name: str = "?"

    def score(self, optimizer: "PowerOptimizer", candidate: "Candidate") -> float:
        """Objective improvement of ``candidate`` (> floor = acceptable)."""
        raise NotImplementedError

    def floor(self, optimizer: "PowerOptimizer") -> float:
        """Minimum accepted score: any strict improvement by default."""
        return 1e-9

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CostModel {self.name}>"


class PowerCost(CostModel):
    """The paper's objective: total estimated power gain (PG_A+PG_B+PG_C)."""

    name = "power"

    def score(self, optimizer: "PowerOptimizer", candidate: "Candidate") -> float:
        return candidate.gain.total

    def floor(self, optimizer: "PowerOptimizer") -> float:
        # min_gain, possibly lifted by §4.2's gain_threshold_fraction —
        # the optimizer owns the lifted value.
        return optimizer._gain_floor


class AreaCost(CostModel):
    """Ref [2]'s objective: cell-area reduction."""

    name = "area"

    def score(self, optimizer: "PowerOptimizer", candidate: "Candidate") -> float:
        return -candidate.gain.area_delta


class DelayCost(CostModel):
    """Ref [5]'s objective: circuit-delay reduction by exact trial STA.

    The quick gain figures cannot see timing, so every scored candidate
    pays one in-place ``what_if`` trial analysis.
    """

    name = "delay"

    def score(self, optimizer: "PowerOptimizer", candidate: "Candidate") -> float:
        after = optimizer.timing.what_if(candidate.substitution)
        if after is None:
            return float("-inf")
        return optimizer.timing.circuit_delay - after


#: Registered objectives by name (``OptimizeOptions.objective`` values).
COST_MODELS: dict[str, type[CostModel]] = {}


def register_cost_model(model: type[CostModel]) -> type[CostModel]:
    """Register ``model`` under ``model.name`` (usable as a decorator)."""
    COST_MODELS[model.name] = model
    return model


for _model in (PowerCost, AreaCost, DelayCost):
    register_cost_model(_model)


def resolve_cost_model(objective) -> CostModel:
    """The :class:`CostModel` behind an ``objective`` option value.

    Accepts a registered name (``"power"``/``"area"``/``"delay"`` plus
    anything added via :func:`register_cost_model`) or a ready
    :class:`CostModel` instance.
    """
    if isinstance(objective, CostModel):
        return objective
    model = COST_MODELS.get(objective)
    if model is None:
        raise ValueError(
            f"unknown optimization objective {objective!r}; registered "
            f"objectives: {', '.join(sorted(COST_MODELS))}"
        )
    return model()
