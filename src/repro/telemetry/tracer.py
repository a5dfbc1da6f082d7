"""The optimizer-facing recording surface.

A :class:`Tracer` is handed to the optimizer via
``OptimizeOptions(trace=Tracer())`` and receives one callback per loop
event: round start (with the generated candidate pool), short-list
evaluation, rejection, ATPG verdict, applied move, round end, run end.
It is strictly read-only — it never touches the netlist or estimator —
so a traced run applies exactly the moves an untraced run would.

The optimizer guards every callback behind ``if self.tracer is not
None``, so the disabled path (the default) costs nothing.

After ``run()`` returns, the finished :class:`RunTrace` is available
both as ``tracer.trace`` and as ``OptimizeResult.trace``.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Optional

from repro.telemetry.metrics import Metrics
from repro.telemetry.trace import MoveTrace, RoundTrace, RunTrace

if TYPE_CHECKING:  # pragma: no cover
    from repro.transform.optimizer import OptimizeResult, PowerOptimizer
    from repro.transform.permissible import PermissibilityResult
    from repro.transform.report import MoveRecord

#: Rejection tallies every round reports, even when zero.
REJECTION_REASONS = ("delay", "not_permissible", "aborted", "stale")

_CLASSES = ("OS2", "IS2", "OS3", "IS3")

#: OptimizeOptions fields recorded in the trace header.  All are scalars
#: that determine the move sequence; diagnostic flags (sanitize, trace
#: itself) are excluded because they cannot change behaviour.
_OPTION_FIELDS = (
    "objective",
    "repeat",
    "delay_limit",
    "delay_slack_percent",
    "num_patterns",
    "seed",
    "preselect",
    "min_gain",
    "gain_threshold_fraction",
    "max_moves",
    "max_rounds",
)

_CANDIDATE_FIELDS = (
    "enable_os2",
    "enable_is2",
    "enable_os3",
    "enable_is3",
    "allow_inversion",
    "max_per_target",
    "max_total",
    "pair_source_limit",
    "min_quick_gain",
    "constant_substitution",
)


class Tracer:
    """Collects one :class:`RunTrace` over one optimizer run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.metrics = Metrics(clock)
        self.trace = RunTrace()
        self._round: Optional[RoundTrace] = None
        self._pending_atpg: Optional["PermissibilityResult"] = None

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------
    def begin_run(self, optimizer: "PowerOptimizer") -> None:
        opts = optimizer.options
        options = {name: getattr(opts, name) for name in _OPTION_FIELDS}
        # A CostModel instance serializes as its registered name.
        options["objective"] = getattr(
            options["objective"], "name", options["objective"]
        )
        for name in _CANDIDATE_FIELDS:
            options[f"candidates.{name}"] = getattr(opts.candidates, name)
        options["input_probs"] = opts.input_probs is not None
        options["input_temporal_specs"] = opts.input_temporal_specs is not None
        self.trace.netlist = optimizer.netlist.name
        self.trace.options = options
        self.metrics.timer("total").start()

    def end_run(self, optimizer: "PowerOptimizer", result: "OptimizeResult") -> RunTrace:
        self.metrics.timer("total").stop()
        for phase, seconds in optimizer.phase_seconds.items():
            self.metrics.timer(f"phase.{phase}").add(seconds)
        workspace = getattr(optimizer, "_workspace", None)
        if workspace is not None:
            self.metrics.counter("workspace_pair_cache_hits").increment(
                workspace.pair_cache_hits
            )
            self.metrics.counter("workspace_pair_cache_misses").increment(
                workspace.pair_cache_misses
            )
        triage = getattr(optimizer, "triage_checker", None)
        if triage is not None:
            for name, value in triage.counters.items():
                self.metrics.counter(f"triage_{name}").increment(value)
        trace = self.trace
        trace.counters = self.metrics.counters()
        trace.timers = self.metrics.timers()
        trace.summary = {
            "initial_power": result.initial_power,
            "final_power": result.final_power,
            "initial_area": result.initial_area,
            "final_area": result.final_area,
            "initial_delay": result.initial_delay,
            "final_delay": result.final_delay,
            "moves": len(result.moves),
            "rounds": result.rounds,
            "rejected_delay": result.rejected_delay,
            "rejected_not_permissible": result.rejected_not_permissible,
            "rejected_aborted": result.rejected_aborted,
            "rejected_stale": result.rejected_stale,
        }
        if result.delay_limit is not None:
            trace.summary["delay_limit"] = result.delay_limit
        return trace

    # ------------------------------------------------------------------
    # Round lifecycle
    # ------------------------------------------------------------------
    def begin_round(self, index: int, pool: list) -> None:
        by_class = {kind: 0 for kind in _CLASSES}
        for candidate in pool:
            by_class[candidate.substitution.kind] += 1
        self._round = RoundTrace(
            index=index,
            pool_size=len(pool),
            candidates_by_class=by_class,
            shortlist_evaluations=0,
            moves_applied=0,
            rejections={reason: 0 for reason in REJECTION_REASONS},
        )
        self.metrics.increment("candidates_generated", len(pool))
        for kind, count in by_class.items():
            self.metrics.increment(f"candidates_{kind.lower()}", count)

    def end_round(self) -> None:
        if self._round is not None:
            self.trace.rounds.append(self._round)
            self._round = None

    # ------------------------------------------------------------------
    # Per-decision events
    # ------------------------------------------------------------------
    def record_shortlist(self, size: int) -> None:
        """``size`` short-list slots were just examined.

        Each slot's PG_C is re-estimated, or reused when the optimizer
        already scored the substitution since the last committed move.
        """
        self.metrics.increment("shortlist_evaluations", size)
        if self._round is not None:
            self._round.shortlist_evaluations += size

    def record_rejection(self, reason: str) -> None:
        self.metrics.increment(f"rejected_{reason}")
        if self._round is not None:
            self._round.rejections[reason] += 1

    def record_atpg(self, result: "PermissibilityResult") -> None:
        """One ``check_candidate`` verdict (kept for the next move)."""
        self.metrics.increment("atpg_calls")
        self.metrics.increment("atpg_backtracks", result.backtracks)
        if result.status == "aborted":
            self.metrics.increment("atpg_aborts")
        self._pending_atpg = result

    def record_move(self, record: "MoveRecord") -> None:
        atpg = self._pending_atpg
        self._pending_atpg = None
        move = MoveTrace(
            index=len(self.trace.moves) + 1,
            round=record.round_index,
            candidate_id=record.substitution.candidate_id(),
            kind=record.substitution.kind,
            pg_a=record.predicted.pg_a,
            pg_b=record.predicted.pg_b,
            pg_c=record.predicted.pg_c,
            predicted_total=record.predicted.total,
            measured_power_gain=record.measured_power_gain,
            measured_area_delta=record.measured_area_delta,
            circuit_delay_after=record.circuit_delay_after,
            atpg_status=atpg.status if atpg else "",
            atpg_stage=atpg.stage if atpg else "",
            atpg_backtracks=atpg.backtracks if atpg else 0,
        )
        self.trace.moves.append(move)
        self.metrics.increment("moves_applied")
        if self._round is not None:
            self._round.moves_applied += 1
