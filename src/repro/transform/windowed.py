"""Windowed POWDER: optimize TFI/TFO windows independently, merge moves.

The whole-netlist candidate rounds cap the engine at MCNC-scale circuits;
this module breaks that ceiling with the scheme of "Simulation-Guided
Boolean Resubstitution" adapted to the DAC-96 move model:

1. :func:`repro.partition.partition_windows` covers the netlist with
   radius-bounded windows (every logic gate in at least one),
2. each window's sub-netlist is shipped — as BLIF text plus its
   :class:`~repro.partition.WindowBoundary` — to a ``multiprocessing``
   pool worker that runs an ordinary :class:`PowerOptimizer` over it and
   returns the *move list* it applied (not the mutated netlist),
3. the parent replays the move lists against the full netlist in window
   order through a deterministic conflict resolver: a window whose
   members were touched by an earlier window's replay is deferred, and
   deferred windows are re-extracted from the live netlist and
   re-optimized sequentially.

Soundness rests on the export contract (every externally observable
member is a sub-netlist PO, boundary inputs are free): a move permissible
in the window preserves the window's PO functions over the *whole* input
space of its boundary, hence preserves the full netlist's PO functions
when replayed — the differential oracle in ``tests/transform`` pins this
end to end.  Window-local *power* estimates are approximations (boundary
inputs are sampled independently with the parent's marginal
probabilities), so a windowed run may occasionally keep a move a global
estimator would have rejected; equivalence is never at stake, only gain
accounting, and the final metrics reported here are recomputed from
scratch on the merged netlist.

Name translation during replay: a window's later moves may reference
gates its earlier moves created (``powder_inv*``/``powder_g*``/
``powder_tie*``), whose fresh names differ in the full netlist.  Every
:class:`~repro.transform.report.MoveRecord` the worker returns carries
its move's ``added`` names and substituting gate; the parent zips them
against its own :class:`~repro.transform.substitution.AppliedSubstitution`
to grow a sub-name -> full-name map.  A move the full netlist rejects
(:meth:`~repro.transform.substitution.Substitution.blocker`: a stale name,
or a cycle through external paths the window could not see) stops that
window's replay before it — the netlist is untouched, because the replay
asks the same rule :func:`apply_substitution` checks before any edit; a
replayed move whose fresh names cannot be translated is recorded and
stops the replay after it.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import TransformError
from repro.netlist.blif import parse_blif, write_blif
from repro.netlist.netlist import Netlist
from repro.partition import (
    Window,
    export_window,
    extract_window,
    partition_windows,
)
from repro.power.estimate import PowerEstimator
from repro.power.probability import SimulationProbability
from repro.timing.analysis import TimingAnalysis
from repro.transform.optimizer import (
    OptimizeOptions,
    OptimizeResult,
    PowerOptimizer,
)
from repro.transform.report import MoveRecord
from repro.transform.substitution import Substitution, apply_substitution

#: Default window extraction knobs (see ``OptimizeOptions``).
DEFAULT_WINDOW_SIZE = 80
DEFAULT_WINDOW_RADIUS = 3


@dataclass
class WindowOutcome:
    """What happened to one window across optimize + merge."""

    window: Window
    moves: list[MoveRecord] = field(default_factory=list)
    #: Moves successfully replayed into the full netlist.
    replayed: int = 0
    #: "applied" | "conflict" | "empty" | "error"
    status: str = "empty"
    error: Optional[str] = None
    #: Rejection counters from the window's sub-run.
    counters: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Pool worker
# ----------------------------------------------------------------------
#: Per-process state installed by the pool initializer (the library is
#: sent once per worker instead of once per window).
_WORKER_STATE: dict = {}


def _init_worker(library) -> None:
    _WORKER_STATE["library"] = library


def _optimize_window_task(task):
    """Optimize one exported window; runs in a pool worker (or inline).

    ``task`` is ``(index, blif_text, po_loads, sub_options)``; the return
    is ``(index, moves, counters, error)`` — exceptions travel back as
    strings so one bad window cannot poison the pool.
    """
    index, blif_text, po_loads, sub_options = task
    library = _WORKER_STATE["library"]
    try:
        sub = parse_blif(blif_text, library)
        for po, load in po_loads.items():
            sub.output_loads[po] = load
        result = PowerOptimizer(sub, sub_options).run()
        counters = {
            "rejected_delay": result.rejected_delay,
            "rejected_not_permissible": result.rejected_not_permissible,
            "rejected_aborted": result.rejected_aborted,
            "rejected_stale": result.rejected_stale,
        }
        return (index, result.moves, counters, None)
    except Exception as exc:  # noqa: BLE001 - transported across the pipe
        return (index, [], {}, f"{type(exc).__name__}: {exc}")


def _translate(substitution: Substitution, name_map: dict) -> Substitution:
    """Rewrite a sub-run substitution into full-netlist gate names."""
    if not name_map:
        return substitution
    branch = substitution.branch
    if branch is not None:
        branch = (name_map.get(branch[0], branch[0]), branch[1])
    return dataclasses.replace(
        substitution,
        target=name_map.get(substitution.target, substitution.target),
        source1=name_map.get(substitution.source1, substitution.source1),
        source2=(
            None
            if substitution.source2 is None
            else name_map.get(substitution.source2, substitution.source2)
        ),
        branch=branch,
    )


# ----------------------------------------------------------------------
# The windowed optimizer
# ----------------------------------------------------------------------
class WindowedOptimizer:
    """Partition, optimize windows on a pool, merge non-conflicting moves.

    Drives the full windowed flow described in the module docstring and
    returns an ordinary :class:`OptimizeResult` whose final metrics are
    recomputed from scratch on the merged netlist.  ``phase_seconds``
    separates ``spawn`` (pool startup) from ``optimize`` so profiles of
    the pool path do not bill worker startup as optimizer time.
    """

    def __init__(self, netlist: Netlist, options: Optional[OptimizeOptions] = None):
        self.netlist = netlist
        self.options = options or OptimizeOptions(windowed=True)
        if not self.options.windowed:
            raise TransformError(
                "WindowedOptimizer requires OptimizeOptions(windowed=True)"
            )
        if netlist.library is None:
            raise TransformError("windowed optimization needs a library")
        self.outcomes: list[WindowOutcome] = []
        #: Indices of windows deferred by the conflict resolver (their
        #: ``WindowOutcome.status`` is later overwritten by the fallback).
        self.conflicts: list[int] = []
        self.phase_seconds: dict = {}

    # ------------------------------------------------------------------
    def _sub_options(self, boundary) -> OptimizeOptions:
        """The per-window run configuration (windowing stripped)."""
        opts = self.options
        return dataclasses.replace(
            opts,
            windowed=False,
            jobs=1,
            input_probs=dict(boundary.input_probs) or None,
            trace=None,
        )

    def _boundary_probabilities(self, engine: SimulationProbability) -> dict:
        """Marginal P(=1) for each *internal* signal a window boundary may
        cut.  Parent PIs are deliberately absent unless the caller supplied
        explicit ``input_probs``: a window input that is a real PI must keep
        the parent's exact sampling semantics (default 0.5), not a noisy
        empirical marginal — this is what makes a single all-covering
        window reproduce the flat optimizer's run bit for bit."""
        probs = {
            name: engine.probability(name)
            for name, gate in self.netlist.gates.items()
            if not gate.is_input
        }
        if self.options.input_probs:
            probs.update(self.options.input_probs)
        return probs

    def _dispatch(self, tasks: list) -> list:
        """Run the window tasks inline (jobs=1) or on a fork-server pool."""
        jobs = self.options.jobs
        if jobs <= 1 or len(tasks) <= 1:
            _init_worker(self.netlist.library)
            self.phase_seconds["spawn"] = 0.0
            return [_optimize_window_task(task) for task in tasks]
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            ctx = multiprocessing.get_context("spawn")
        tick = time.perf_counter()
        with ctx.Pool(
            processes=jobs,
            initializer=_init_worker,
            initargs=(self.netlist.library,),
        ) as pool:
            self.phase_seconds["spawn"] = time.perf_counter() - tick
            results = pool.map(_optimize_window_task, tasks, chunksize=1)
        return results

    # ------------------------------------------------------------------
    def _replay(self, outcome: WindowOutcome, touched: set) -> list[MoveRecord]:
        """Replay one window's moves into the full netlist.

        Grows ``touched`` with every gate the replay dirtied; returns the
        MoveRecords actually applied (window-local gain figures).
        """
        netlist = self.netlist
        name_map: dict = {}
        records: list[MoveRecord] = []
        for move in outcome.moves:
            substitution = _translate(move.substitution, name_map)
            if substitution.blocker(netlist) is not None:
                break
            applied = apply_substitution(netlist, substitution)
            translated = True
            if len(applied.added) == len(move.added):
                for sub_name, full_name in zip(move.added, applied.added):
                    name_map[sub_name] = full_name
            elif move.substituting and applied.substituting:
                # Tie-gate reuse differs between the runs (the sub-run
                # created a tie the full netlist already had, or the
                # reverse); the substituting gate is the only fresh name
                # later moves can reference.
                name_map[move.substituting] = applied.substituting
            else:
                translated = False
            if move.substituting and applied.substituting:
                name_map.setdefault(move.substituting, applied.substituting)
            touched.update(applied.dirty_gate_names(netlist))
            touched.update(applied.removed)
            touched.update(applied.added)
            outcome.replayed += 1
            records.append(
                dataclasses.replace(
                    move,
                    substitution=substitution,
                    round_index=outcome.window.index,
                    circuit_delay_after=0.0,
                    added=tuple(applied.added),
                    substituting=applied.substituting,
                )
            )
            if not translated:
                # Later moves may name fresh gates this one created.
                break
        return records

    def _reoptimize_deferred(
        self, outcome: WindowOutcome, probs: dict
    ) -> list[MoveRecord]:
        """Sequential fallback: re-extract the window from the live
        netlist, optimize it inline, and replay immediately."""
        netlist = self.netlist
        window = outcome.window
        seed_gate = None
        for name in window.seeds + window.members:
            gate = netlist.gates.get(name)
            if gate is not None and not gate.is_input:
                seed_gate = gate
                break
        if seed_gate is None:
            outcome.status = "empty"
            return []
        live = extract_window(
            netlist,
            seed_gate,
            radius=self.options.window_radius,
            max_gates=self.options.window_size,
            index=window.index,
        )
        live_probs = {
            name: probs[name] for name in live.inputs if name in probs
        }
        sub, boundary = export_window(netlist, live, probabilities=live_probs)
        task = (
            live.index,
            write_blif(sub),
            dict(boundary.po_loads),
            self._sub_options(boundary),
        )
        _init_worker(netlist.library)
        _index, moves, counters, error = _optimize_window_task(task)
        if error is not None:
            outcome.status = "error"
            outcome.error = error
            return []
        outcome.window = live
        outcome.moves = moves
        outcome.counters = counters
        records = self._replay(outcome, set())
        outcome.status = "applied" if records else "empty"
        return records

    # ------------------------------------------------------------------
    def run(self) -> OptimizeResult:
        opts = self.options
        netlist = self.netlist
        start = time.perf_counter()
        phases = self.phase_seconds

        engine = SimulationProbability(
            netlist,
            num_patterns=opts.num_patterns,
            seed=opts.seed,
            input_probs=opts.input_probs,
        )
        initial_power = PowerEstimator(netlist, engine).total()
        initial_area = netlist.total_area()
        initial_delay = TimingAnalysis(netlist).circuit_delay

        tick = time.perf_counter()
        windows = partition_windows(
            netlist, radius=opts.window_radius, max_gates=opts.window_size
        )
        probs = self._boundary_probabilities(engine)
        tasks = []
        for window in windows:
            window_probs = {
                name: probs[name] for name in window.inputs if name in probs
            }
            sub, boundary = export_window(
                netlist, window, probabilities=window_probs
            )
            tasks.append(
                (
                    window.index,
                    write_blif(sub),
                    dict(boundary.po_loads),
                    self._sub_options(boundary),
                )
            )
        phases["partition"] = time.perf_counter() - tick

        tick = time.perf_counter()
        raw = self._dispatch(tasks)
        phases["optimize"] = time.perf_counter() - tick - phases["spawn"]

        raw.sort(key=lambda item: item[0])
        self.outcomes = []
        errors = []
        for window, (index, moves, counters, error) in zip(windows, raw):
            assert window.index == index
            outcome = WindowOutcome(
                window=window, moves=list(moves), counters=counters, error=error
            )
            if error is not None:
                outcome.status = "error"
                errors.append(f"window {index} ({window.seeds[0]}): {error}")
            self.outcomes.append(outcome)
        if errors:
            raise TransformError(
                "windowed optimization failed in "
                f"{len(errors)} worker(s): " + "; ".join(errors[:3])
            )

        tick = time.perf_counter()
        records: list[MoveRecord] = []
        touched: set = set()
        deferred: list[WindowOutcome] = []
        for outcome in self.outcomes:
            if not outcome.moves:
                outcome.status = "empty"
                continue
            if touched.intersection(outcome.window.members):
                outcome.status = "conflict"
                self.conflicts.append(outcome.window.index)
                deferred.append(outcome)
                continue
            applied = self._replay(outcome, touched)
            records.extend(applied)
            outcome.status = "applied" if applied else "empty"
        phases["merge"] = time.perf_counter() - tick

        tick = time.perf_counter()
        for outcome in deferred:
            records.extend(self._reoptimize_deferred(outcome, probs))
        phases["fallback"] = time.perf_counter() - tick

        counters = {
            "rejected_delay": 0,
            "rejected_not_permissible": 0,
            "rejected_aborted": 0,
            "rejected_stale": 0,
        }
        for outcome in self.outcomes:
            for key in counters:
                counters[key] += outcome.counters.get(key, 0)

        tick = time.perf_counter()
        final_engine = SimulationProbability(
            netlist,
            num_patterns=opts.num_patterns,
            seed=opts.seed,
            input_probs=opts.input_probs,
        )
        final_power = PowerEstimator(netlist, final_engine).total()
        final_delay = TimingAnalysis(netlist).circuit_delay
        phases["metrics"] = time.perf_counter() - tick

        return OptimizeResult(
            netlist=netlist,
            initial_power=initial_power,
            final_power=final_power,
            initial_area=initial_area,
            final_area=netlist.total_area(),
            initial_delay=initial_delay,
            final_delay=final_delay,
            moves=records,
            rounds=len(windows),
            rejected_delay=counters["rejected_delay"],
            rejected_not_permissible=counters["rejected_not_permissible"],
            rejected_aborted=counters["rejected_aborted"],
            rejected_stale=counters["rejected_stale"],
            runtime_seconds=time.perf_counter() - start,
            delay_limit=None,
            phase_seconds=dict(phases),
        )


def windowed_optimize(
    netlist: Netlist, options: Optional[OptimizeOptions] = None
) -> OptimizeResult:
    """Run the windowed flow over ``netlist`` (modified in place)."""
    if options is None:
        options = OptimizeOptions(windowed=True)
    return WindowedOptimizer(netlist, options).run()
