"""The POWDER optimization loop (Figure 5 of the paper).

``power_optimize(netlist, ...)`` performs a greedy sequence of permissible
substitutions, each reducing the estimated power, optionally under a delay
constraint:

1. ``power_estimate`` — build the estimator, storing all transition
   probabilities (§3.5),
2. ``get_candidate_substitutions`` — simulation-filtered candidates,
3. ``select_power_red_subst`` — pre-select by ``PG_A + PG_B`` (no
   re-estimation), re-estimate ``PG_C`` only for the short-list, pick the
   best total; a substitution already scored since the last committed
   move reuses its breakdown,
4. ``check_delay`` — discard moves that would break the constraint (§3.4),
5. ``check_candidate`` — exact permissibility: a simulation kill, then
   an incremental CDCL proof; an exhausted SAT budget is an abort, and
   aborts count as rejection,
6. ``perform_substitution`` + ``power_estimate_update`` — apply and
   incrementally refresh the probabilities of the substituted signal's TFO.

The inner loop runs up to ``repeat`` substitutions per candidate round; the
outer loop regenerates candidates until no power-reducing substitution
remains (or a configured budget runs out).

Since the pass-pipeline refactor this module is the *engine* layer:

- shared analysis state (probability engine, estimator, delay
  constraint, STA, candidate workspace) lives in a
  :class:`repro.pipeline.OptimizationContext`; :class:`PowerOptimizer`
  reads it through the context, building lazily and maintaining it
  incrementally,
- the objective is a pluggable :class:`repro.transform.cost.CostModel`
  (``power``/``area``/``delay`` built in) instead of a string branch,
- :func:`power_optimize` is a thin wrapper over the default pass
  pipeline (one ``powder`` stage) run by a
  :class:`repro.pipeline.PassManager` — bit-identical to driving the
  engine directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import TransformError
from repro.kernels.words import validate_num_patterns
from repro.netlist.netlist import Netlist
from repro.timing.analysis import TimingAnalysis
from repro.timing.constraints import quick_delay_reject
from repro.transform.candidates import Candidate, CandidateOptions
from repro.transform.cost import COST_MODELS, CostModel, resolve_cost_model
from repro.transform.gain import GainBreakdown, full_gain
from repro.transform.permissible import ABORTED, NOT_PERMISSIBLE
from repro.transform.report import MoveRecord, format_class_table
from repro.transform.substitution import (
    OS3,
    IS3,
    Substitution,
    apply_substitution,
)


@dataclass
class OptimizeOptions:
    """Configuration of one POWDER run."""

    #: What each substitution must improve: the name of a registered
    #: :class:`~repro.transform.cost.CostModel` or an instance.  "power"
    #: is the paper; "area" and "delay" reproduce the same
    #: ATPG-transformation engine in the roles of the paper's companion
    #: works (redundancy addition/removal for area [2], clause analysis
    #: for delay [5]).
    objective: str = "power"
    #: Substitutions applied per candidate-generation round (Figure 5).
    repeat: int = 25
    #: Absolute delay limit; ``None`` disables the timing check.
    delay_limit: Optional[float] = None
    #: Alternative: limit = initial delay × (1 + percent/100).
    delay_slack_percent: Optional[float] = None
    #: Candidate-generation knobs.
    candidates: CandidateOptions = field(default_factory=CandidateOptions)
    #: Random patterns for the probability engine.
    num_patterns: int = 2048
    seed: int = 2024
    #: Primary-input signal probabilities (name -> P(=1)); default 0.5.
    input_probs: Optional[dict] = None
    #: Lag-1 Markov input descriptions (name -> TemporalSpec).  When set,
    #: the optimizer measures activities with the temporal pair-simulation
    #: engine instead of assuming temporal independence.
    input_temporal_specs: Optional[dict] = None
    #: Short-list size for the PG_C re-estimation during selection.
    preselect: int = 10
    #: Minimum accepted power gain (the paper stops at "no reduction").
    min_gain: float = 1e-9
    #: Early termination from §4.2: stop once a move's gain falls below
    #: this fraction of the *initial* power ("one could terminate the
    #: program when the power reduction by the current substitutions is
    #: below a threshold").  ``None`` disables it.
    gain_threshold_fraction: Optional[float] = None
    #: Hard caps to bound runtime on large circuits.
    max_moves: Optional[int] = None
    max_rounds: int = 50
    #: Diagnostics mode (slow; for tests): after every move run the
    #: :mod:`repro.lint` rule pack and cross-check every incremental
    #: structure (simulation values, probabilities, STA, observability
    #: maps, pair tables) against from-scratch rebuilds, raising
    #: :class:`~repro.errors.LintError` with the offending move and rule
    #: ID on any divergence.  Read-only: the applied move sequence is
    #: bit-identical to an unsanitized run.
    sanitize: bool = False
    #: A :class:`repro.telemetry.Tracer` recording per-round and per-move
    #: events into a structured :class:`~repro.telemetry.RunTrace`
    #: (available as ``OptimizeResult.trace`` afterwards).  The tracer is
    #: strictly read-only, so a traced run applies exactly the moves an
    #: untraced run would; ``None`` (the default) records nothing and
    #: costs nothing.
    trace: Optional[object] = None
    #: Windowed mode for large netlists: partition into radius-bounded
    #: TFI/TFO windows (:mod:`repro.partition`), optimize each window on
    #: a ``multiprocessing`` pool, and merge the non-conflicting move
    #: lists deterministically (:mod:`repro.transform.windowed`).
    #: Equivalence-preserving like the flat run; window-local *power*
    #: accounting is approximate (boundary inputs are sampled with the
    #: parent's marginal probabilities), so the final metrics are
    #: recomputed from scratch on the merged netlist.
    windowed: bool = False
    #: Windowed mode: maximum logic gates per window.
    window_size: int = 80
    #: Windowed mode: extraction radius (fanin+fanout steps from seed).
    window_radius: int = 3
    #: Windowed mode: pool worker count; 1 runs windows inline (no pool,
    #: same move sequence as a 1-worker pool).
    jobs: int = 1

    def __post_init__(self):
        """Reject configurations that would otherwise fail deep in the run."""
        if (
            not isinstance(self.objective, CostModel)
            and self.objective not in COST_MODELS
        ):
            raise ValueError(
                f"unknown optimization objective {self.objective!r}; "
                f"registered objectives: {', '.join(sorted(COST_MODELS))}"
            )
        if self.repeat < 0:
            raise ValueError(
                f"repeat must be non-negative, got {self.repeat}"
            )
        if self.preselect < 0:
            raise ValueError(
                f"preselect must be non-negative, got {self.preselect}"
            )
        validate_num_patterns(self.num_patterns)
        if self.max_moves is not None and self.max_moves < 0:
            raise ValueError(
                f"max_moves must be non-negative, got {self.max_moves}"
            )
        if self.max_rounds < 1:
            raise ValueError(
                f"max_rounds must be positive, got {self.max_rounds}"
            )
        if self.delay_limit is not None and self.delay_slack_percent is not None:
            raise ValueError(
                "delay_limit and delay_slack_percent are mutually "
                "exclusive; set at most one"
            )
        if self.window_size < 1:
            raise ValueError(
                f"window_size must be positive, got {self.window_size}"
            )
        if self.window_radius < 1:
            raise ValueError(
                f"window_radius must be positive, got {self.window_radius}"
            )
        if self.jobs < 1:
            raise ValueError(f"jobs must be positive, got {self.jobs}")
        if self.windowed:
            if self.delay_limit is not None or self.delay_slack_percent is not None:
                raise ValueError(
                    "windowed optimization does not support delay "
                    "constraints: window-local slack cannot see external "
                    "paths, so the constraint would not be enforced"
                )
            if self.input_temporal_specs:
                raise ValueError(
                    "windowed optimization does not support temporal input "
                    "specs: lag-1 correlations do not project onto window "
                    "boundaries"
                )
            if self.trace is not None:
                raise ValueError(
                    "windowed optimization does not support tracing: "
                    "per-window traces do not compose into one RunTrace"
                )

    # ------------------------------------------------------------------
    # Canonical JSON round-trip (the `powder serve` wire format)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-representable form of every configuration field.

        The inverse of :meth:`from_dict`; ``from_dict(to_dict(o))``
        reproduces ``o`` exactly.  A :class:`~repro.transform.cost.CostModel`
        objective serializes as its registered name, ``candidates`` nests
        as a :meth:`CandidateOptions.to_dict` dictionary, and temporal
        input specs flatten to ``{"p1": ..., "activity": ...}`` records.
        ``trace`` is the one excluded field: a live tracer is run state,
        not configuration, so options carrying one refuse to serialize.
        """
        if self.trace is not None:
            raise ValueError(
                "options carrying a live tracer do not serialize; "
                "set trace=None and attach the tracer after from_dict"
            )
        from dataclasses import fields as _fields

        data: dict = {}
        for entry in _fields(self):
            if entry.name == "trace":
                continue
            value = getattr(self, entry.name)
            if entry.name == "objective":
                value = getattr(value, "name", value)
            elif entry.name == "candidates":
                value = value.to_dict()
            elif entry.name == "input_probs" and value is not None:
                value = {name: float(p) for name, p in value.items()}
            elif entry.name == "input_temporal_specs" and value is not None:
                value = {
                    name: {"p1": spec.p1, "activity": spec.activity}
                    for name, spec in value.items()
                }
            data[entry.name] = value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizeOptions":
        """Rebuild options from :meth:`to_dict` output.

        Unknown keys raise :class:`ValueError` (a mistyped knob must not
        silently fall back to its default), and the reconstructed options
        go through ``__post_init__`` validation like any other.
        """
        from dataclasses import fields as _fields

        if data.get("trace") is not None:
            raise ValueError("trace does not round-trip through JSON")
        known = {entry.name for entry in _fields(cls)} - {"trace"}
        unknown = sorted(set(data) - known - {"trace"})
        if unknown:
            raise ValueError(
                f"unknown OptimizeOptions field(s): {', '.join(unknown)}"
            )
        kwargs = {key: value for key, value in data.items() if key != "trace"}
        if "candidates" in kwargs:
            kwargs["candidates"] = CandidateOptions.from_dict(
                kwargs["candidates"]
            )
        if kwargs.get("input_temporal_specs") is not None:
            from repro.power.temporal import TemporalSpec

            kwargs["input_temporal_specs"] = {
                name: TemporalSpec(**spec)
                for name, spec in kwargs["input_temporal_specs"].items()
            }
        return cls(**kwargs)

    def canonical_json(self) -> str:
        """Byte-stable canonical JSON of :meth:`to_dict` (cache keying)."""
        from repro.telemetry.trace import deterministic_json

        return deterministic_json(self.to_dict())


@dataclass
class OptimizeResult:
    """Everything the experiment harness needs about one run."""

    netlist: Netlist
    initial_power: float
    final_power: float
    initial_area: float
    final_area: float
    initial_delay: float
    final_delay: float
    moves: list[MoveRecord]
    rounds: int
    rejected_delay: int
    rejected_not_permissible: int
    rejected_aborted: int
    rejected_stale: int
    runtime_seconds: float
    delay_limit: Optional[float]
    #: Wall-clock seconds per loop phase (candidates / select / timing /
    #: atpg / apply).
    phase_seconds: dict = field(default_factory=dict)
    #: The finished :class:`~repro.telemetry.RunTrace` when the run was
    #: traced via ``OptimizeOptions(trace=...)``; ``None`` otherwise.
    trace: Optional[object] = None

    @property
    def power_reduction_percent(self) -> float:
        if self.initial_power == 0:
            return 0.0
        return 100.0 * (1.0 - self.final_power / self.initial_power)

    @property
    def area_reduction_percent(self) -> float:
        if self.initial_area == 0:
            return 0.0
        return 100.0 * (1.0 - self.final_area / self.initial_area)

    @property
    def delay_reduction_percent(self) -> float:
        if self.initial_delay == 0:
            return 0.0
        return 100.0 * (1.0 - self.final_delay / self.initial_delay)

    def summary(self) -> str:
        lines = [
            f"POWDER result for {self.netlist.name!r}:",
            f"  power : {self.initial_power:10.4f} -> {self.final_power:10.4f}"
            f"  ({self.power_reduction_percent:+.1f}% reduction)",
            f"  area  : {self.initial_area:10.1f} -> {self.final_area:10.1f}"
            f"  ({self.area_reduction_percent:+.1f}% reduction)",
            f"  delay : {self.initial_delay:10.3f} -> {self.final_delay:10.3f}",
            f"  moves : {len(self.moves)} in {self.rounds} rounds, "
            f"{self.runtime_seconds:.2f}s",
        ]
        if self.phase_seconds:
            parts = ", ".join(
                f"{name} {seconds:.2f}s"
                for name, seconds in self.phase_seconds.items()
            )
            lines.append(f"  phases: {parts}")
        if self.moves:
            lines.append(format_class_table(self.moves))
        return "\n".join(lines)


class PowerOptimizer:
    """Stateful POWDER run over one netlist (modified in place).

    The engine behind the pipeline's ``powder`` pass.  Shared analysis
    state (estimator, constraint, STA, candidate workspace) lives in an
    :class:`~repro.pipeline.OptimizationContext`: construct with
    ``PowerOptimizer(netlist, options)`` for a private context (the
    legacy direct entry point), or ``PowerOptimizer(context=ctx)`` to
    run over a pipeline's shared one.
    """

    def __init__(
        self,
        netlist: Optional[Netlist] = None,
        options: Optional[OptimizeOptions] = None,
        *,
        context=None,
    ):
        if context is None:
            if netlist is None:
                raise TypeError("pass a netlist or an OptimizationContext")
            from repro.pipeline.context import OptimizationContext

            context = OptimizationContext(netlist, options or OptimizeOptions())
        elif netlist is not None or options is not None:
            raise TypeError(
                "pass either (netlist, options) or a context, not both"
            )
        self.ctx = context
        self.netlist = context.netlist
        self.options = context.options
        opts = self.options
        self.cost_model = resolve_cost_model(opts.objective)
        self.initial_delay = TimingAnalysis(self.netlist).circuit_delay
        self.moves: list[MoveRecord] = []
        self._gain_floor = opts.min_gain
        self.rejected_delay = 0
        self.rejected_not_permissible = 0
        self.rejected_aborted = 0
        self.rejected_stale = 0
        #: ``full_gain`` results since the last committed move, by
        #: substitution; ``None`` where it raised :class:`TransformError`.
        #: Rejecting a winner changes neither the netlist nor the
        #: probabilities, so a re-score would compute the same figures.
        self._gains: dict[Substitution, Optional[GainBreakdown]] = {}
        self._round = 0
        #: Telemetry hooks; every call site is guarded by ``is not None``
        #: so the untraced path (the default) pays nothing.
        self.tracer = opts.trace
        self.sanitizer = None
        if opts.sanitize:
            from repro.lint.sanitizer import TransformSanitizer

            self.sanitizer = TransformSanitizer(context)
        self.phase_seconds = {
            "candidates": 0.0,
            "select": 0.0,
            "timing": 0.0,
            "atpg": 0.0,
            "apply": 0.0,
        }

    # ------------------------------------------------------------------
    # Shared analyses (owned by the context, built on first use)
    # ------------------------------------------------------------------
    @property
    def estimator(self):
        """power_estimate(netlist): committed probabilities for all gates."""
        return self.ctx.estimator

    @property
    def constraint(self):
        return self.ctx.constraint

    @property
    def timing(self):
        return self.ctx.timing

    @property
    def _workspace(self):
        """The persistent candidate workspace, ``None`` until first built."""
        return self.ctx.peek("workspace")

    # ------------------------------------------------------------------
    # Figure-5 primitives
    # ------------------------------------------------------------------
    def get_candidate_substitutions(self) -> list[Candidate]:
        return self.ctx.workspace.generate(self.options.candidates)

    def _objective_score(self, candidate: Candidate) -> float:
        """How much the configured objective improves (> floor = accept)."""
        return self.cost_model.score(self, candidate)

    def _objective_floor(self) -> float:
        return self.cost_model.floor(self)

    def select_power_red_subst(
        self, pool: list[Candidate]
    ) -> Optional[Candidate]:
        """Pick the best candidate by the objective from the pool's head.

        Examines candidates in quick-gain order, chunk by chunk: the first
        chunk whose best score clears the floor wins.  Examined losers are
        dropped from the pool, guaranteeing progress.  ``full_gain`` runs
        once per substitution between committed moves; a memoized
        :class:`TransformError` counts as a stale rejection every time.
        """
        opts = self.options
        while pool:
            chunk: list[tuple[int, Candidate]] = []
            index = 0
            while index < len(pool) and len(chunk) < opts.preselect:
                candidate = pool[index]
                if not candidate.substitution.validate_against(self.netlist):
                    self.rejected_stale += 1
                    if self.tracer is not None:
                        self.tracer.record_rejection("stale")
                    pool.pop(index)
                    continue
                chunk.append((index, candidate))
                index += 1
            if not chunk:
                return None
            if self.tracer is not None:
                self.tracer.record_shortlist(len(chunk))
            best: Optional[tuple[int, Candidate, float]] = None
            for position, candidate in chunk:
                substitution = candidate.substitution
                if substitution not in self._gains:
                    try:
                        self._gains[substitution] = full_gain(
                            self.estimator, substitution
                        )
                    except TransformError:
                        self._gains[substitution] = None
                gain = self._gains[substitution]
                if gain is None:
                    self.rejected_stale += 1
                    if self.tracer is not None:
                        self.tracer.record_rejection("stale")
                    continue
                candidate.gain = gain
                score = self._objective_score(candidate)
                if best is None or score > best[2]:
                    best = (position, candidate, score)
            if best is not None and best[2] > self._objective_floor():
                pool.pop(best[0])
                return best[1]
            # Nothing improving in this chunk: discard and move on.
            for position, _candidate in sorted(chunk, reverse=True):
                pool.pop(position)
        return None

    def check_delay(self, substitution: Substitution) -> bool:
        """True when the move respects the delay constraint (§3.4)."""
        if self.constraint is None:
            return True
        netlist = self.netlist
        target = netlist.gate(substitution.target)
        if not substitution.is_constant:
            # Tie cells arrive at t=0 and never slow down; the quick filter
            # only applies to real signal sources.
            substituting = netlist.gate(substitution.source1)
            added_load = _added_load(netlist, substitution)
            new_tau = new_res = 0.0
            if substitution.kind in (OS3, IS3):
                cell = netlist.library[substitution.new_cell]
                new_tau = max(p.tau for p in cell.pins)
                new_res = max(p.resistance for p in cell.pins)
            if quick_delay_reject(
                self.timing, substituting, target, added_load, new_tau, new_res
            ):
                return False
        # Exact verdict: what_if evaluates the rewired netlist in place;
        # None means the move is stale or cycle-creating (what apply
        # would raise), so it is rejected.
        verdict = self.timing.what_if(substitution)
        if verdict is None:
            return False
        return verdict <= self.constraint.limit + 1e-9

    @property
    def triage_checker(self):
        """The triage permissibility engine, ``None`` until first built."""
        return self.ctx.peek("triage")

    def check_candidate(self, substitution: Substitution) -> str:
        """Permissibility verdict from the context's :class:`TriageChecker`."""
        result = self.ctx.get("triage").check(substitution)
        if self.tracer is not None:
            self.tracer.record_atpg(result)
        return result.status

    def perform_substitution(self, candidate: Candidate) -> MoveRecord:
        self._gains.clear()
        power_before = self.estimator.total()
        area_before = self.netlist.total_area()
        applied = apply_substitution(self.netlist, candidate.substitution)
        # power_estimate_update: refresh probabilities in the TFO region.
        roots = [
            self.netlist.gate(name)
            for name in applied.resim_roots
            if name in self.netlist.gates
        ]
        changed = self.estimator.update_after_edit(roots)
        dirty = dict.fromkeys(applied.dirty_gate_names(self.netlist))
        for name in changed:
            if name in self.netlist.gates:
                dirty.setdefault(name)
        dirty_gates = [self.netlist.gate(n) for n in dirty]
        self.timing.update_after_edit(dirty_gates)
        workspace = self._workspace
        if workspace is not None:
            workspace.invalidate(dirty_gates)
        if self.sanitizer is not None:
            self.sanitizer.after_move(applied, len(self.moves) + 1)
        record = MoveRecord(
            substitution=candidate.substitution,
            predicted=candidate.gain,
            measured_power_gain=power_before - self.estimator.total(),
            measured_area_delta=self.netlist.total_area() - area_before,
            round_index=self._round,
            circuit_delay_after=self.timing.circuit_delay,
            added=tuple(applied.added),
            substituting=applied.substituting,
        )
        self.moves.append(record)
        if self.tracer is not None:
            self.tracer.record_move(record)
        return record

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> OptimizeResult:
        opts = self.options
        start = time.perf_counter()
        if self.tracer is not None:
            self.tracer.begin_run(self)
        initial_power = self.estimator.total()
        initial_area = self.netlist.total_area()
        # §4.2 early termination: lift the acceptance floor to a fraction
        # of the initial power when requested.
        self._gain_floor = opts.min_gain
        if opts.gain_threshold_fraction is not None:
            self._gain_floor = max(
                self._gain_floor,
                opts.gain_threshold_fraction * initial_power,
            )

        phases = self.phase_seconds
        while True:
            self._round += 1
            tick = time.perf_counter()
            pool = self.get_candidate_substitutions()
            phases["candidates"] += time.perf_counter() - tick
            if self.tracer is not None:
                self.tracer.begin_round(self._round, pool)
            performed_this_round = 0
            budget = opts.repeat
            while budget > 0 and pool:
                if opts.max_moves is not None and len(self.moves) >= opts.max_moves:
                    break
                tick = time.perf_counter()
                good = self.select_power_red_subst(pool)
                phases["select"] += time.perf_counter() - tick
                if good is None:
                    break
                tick = time.perf_counter()
                delay_ok = self.check_delay(good.substitution)
                phases["timing"] += time.perf_counter() - tick
                if not delay_ok:
                    self.rejected_delay += 1
                    if self.tracer is not None:
                        self.tracer.record_rejection("delay")
                    continue
                tick = time.perf_counter()
                status = self.check_candidate(good.substitution)
                phases["atpg"] += time.perf_counter() - tick
                if status == ABORTED:
                    self.rejected_aborted += 1
                    if self.tracer is not None:
                        self.tracer.record_rejection("aborted")
                    continue
                if status == NOT_PERMISSIBLE:
                    self.rejected_not_permissible += 1
                    if self.tracer is not None:
                        self.tracer.record_rejection("not_permissible")
                    continue
                tick = time.perf_counter()
                self.perform_substitution(good)
                phases["apply"] += time.perf_counter() - tick
                performed_this_round += 1
                budget -= 1
            if self.tracer is not None:
                self.tracer.end_round()
            stop = (
                performed_this_round == 0
                or self._round >= opts.max_rounds
                or (
                    opts.max_moves is not None
                    and len(self.moves) >= opts.max_moves
                )
            )
            if stop:
                break

        final_timing = TimingAnalysis(self.netlist)
        result = OptimizeResult(
            netlist=self.netlist,
            initial_power=initial_power,
            final_power=self.estimator.total(),
            initial_area=initial_area,
            final_area=self.netlist.total_area(),
            initial_delay=self.initial_delay,
            final_delay=final_timing.circuit_delay,
            moves=self.moves,
            rounds=self._round,
            rejected_delay=self.rejected_delay,
            rejected_not_permissible=self.rejected_not_permissible,
            rejected_aborted=self.rejected_aborted,
            rejected_stale=self.rejected_stale,
            runtime_seconds=time.perf_counter() - start,
            delay_limit=self.constraint.limit if self.constraint else None,
            phase_seconds=dict(self.phase_seconds),
        )
        if self.tracer is not None:
            result.trace = self.tracer.end_run(self, result)
        return result


def _added_load(netlist: Netlist, substitution: Substitution) -> float:
    """Capacitance newly presented to the substituting signal."""
    if substitution.kind in (OS3, IS3):
        cell = netlist.library[substitution.new_cell]
        return cell.pins[0].load
    if substitution.is_output_substitution():
        return netlist.load_of(netlist.gate(substitution.target))
    sink_name, pin = substitution.branch
    return netlist.gate(sink_name).cell.pins[pin].load


def power_optimize(
    netlist: Netlist,
    options: Optional[OptimizeOptions] = None,
    **kwargs,
) -> OptimizeResult:
    """Run POWDER on ``netlist`` (modified in place).

    Keyword arguments are convenience overrides for
    :class:`OptimizeOptions` fields, e.g. ``power_optimize(nl, repeat=10,
    delay_slack_percent=0)``.

    This is a thin wrapper over the default pass pipeline (one
    ``powder`` stage, or ``window`` in windowed mode) scheduled by a
    :class:`repro.pipeline.PassManager`; it applies a move sequence
    bit-identical to driving :class:`PowerOptimizer` directly.  Compose
    custom pipelines, such as ``"dedupe; powder"``, with
    :func:`repro.pipeline.run_pipeline`.
    """
    if options is None:
        options = OptimizeOptions(**kwargs)
    elif kwargs:
        raise TypeError("pass either an OptimizeOptions or keyword overrides")
    from repro.pipeline.context import OptimizationContext
    from repro.pipeline.manager import PassManager
    from repro.pipeline.passes import default_pipeline

    context = OptimizationContext(netlist, options)
    outcome = PassManager().run(context, default_pipeline(options))
    result = outcome.optimize_result
    if result is None:  # pragma: no cover - default_pipeline always powders
        raise TransformError("default pipeline produced no optimize result")
    return result
