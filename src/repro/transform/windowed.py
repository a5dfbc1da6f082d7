"""Windowed POWDER: optimize TFI/TFO windows in conflict-free generations.

The whole-netlist candidate rounds cap the engine at MCNC-scale circuits;
this module breaks that ceiling with the scheme of "Simulation-Guided
Boolean Resubstitution" adapted to the DAC-96 move model:

1. :func:`repro.partition.partition_windows` covers the netlist with
   radius-bounded windows (every logic gate in at least one),
2. the windows run in *generations*.  A generation takes, in window
   order, every pending window that conflicts with no window already
   chosen (:func:`_reach`: neither window's reach meets the other's
   members) and ships each, as BLIF text exported from the *live*
   netlist plus its :class:`~repro.partition.WindowBoundary`, to one
   ``multiprocessing`` pool that lives for the whole run.  A worker runs
   an ordinary :class:`PowerOptimizer` over the window and returns the
   *move list* it applied (not the mutated netlist),
3. the parent replays the generation's move lists against the full
   netlist in window order, and the next generation starts from the
   merged netlist.  Every window is optimized once, against a netlist
   that already holds every earlier merge its region depends on.

A pending window keeps its partition members while they are all live,
with its boundary recomputed from the live netlist; once a replay removed
one, the window is re-extracted around its first live seed or member, and
a window with no live gate left is finished ``empty``.  A replay changes
nothing outside its window's reach but the gates it adds, so the windows
of one generation never touch each other's members.  The merge still
checks: a window whose members an earlier replay of its generation
touched is dropped, its index is counted in
:attr:`WindowedOptimizer.conflicts`, and it returns to the pending set —
a counted bug, not a path a correct run takes.  Generation membership
depends only on the live netlist, so ``jobs=1`` and ``jobs=2`` give the
same moves and the same netlist.

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

import contextlib
import dataclasses
import heapq
import multiprocessing
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import TransformError
from repro.netlist.blif import parse_blif, write_blif
from repro.netlist.netlist import Netlist
from repro.netlist.traverse import topological_index
from repro.partition import (
    Window,
    export_window,
    extract_window,
    partition_windows,
    recompute_boundary,
)
from repro.power.estimate import PowerEstimator
from repro.power.probability import SimulationProbability
from repro.timing.analysis import TimingAnalysis
from repro.transform.optimizer import (
    OptimizeOptions,
    OptimizeResult,
    PowerOptimizer,
    registry_fields,
)
from repro.transform.report import MoveRecord
from repro.transform.substitution import Substitution, apply_substitution

#: The steps a windowed run times, as ``phase.<name>`` timers in its
#: registry, in the order ``OptimizeResult.phase_seconds`` reports them.
PHASES = ("spawn", "partition", "optimize", "merge", "metrics")


@dataclass
class WindowOutcome:
    """What happened to one window across optimize + merge."""

    window: Window
    moves: list[MoveRecord] = field(default_factory=list)
    #: Moves successfully replayed into the full netlist.
    replayed: int = 0
    #: "applied" | "empty" | "error", or "conflict" while a window the
    #: touch check dropped waits for its next generation.
    status: str = "empty"
    error: Optional[str] = None
    #: The generation (0-based) the window was optimized in; ``None`` when
    #: no gate of it was left to optimize.
    generation: Optional[int] = None


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
        optimizer = PowerOptimizer(sub, sub_options)
        result = optimizer.run()
        return (index, result.moves, optimizer.metrics.counters(), None)
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


def _sweep_cone(netlist: Netlist, members: set) -> set:
    """``D(W)``: the gates outside a window that die with its readers.

    A gate is in the cone when it is neither a primary input nor a PO
    driver and every fanout lies in the window or the cone.  The window's
    sub-run sees these gates as free inputs, but the full netlist's
    ``sweep_dead`` removes them once the window's moves kill their
    readers.  Gates are decided in descending topological order, so every
    fanout of a gate is decided before the gate.
    """
    gates = netlist.gates
    topo = topological_index(netlist)
    frontier: list = []

    def push_fanins(gate) -> None:
        for fanin in gate.fanins:
            if fanin.name not in members:
                heapq.heappush(frontier, (-topo[id(fanin)], fanin.name))

    for name in members:
        push_fanins(gates[name])
    cone: set = set()
    seen: set = set()
    while frontier:
        _position, name = heapq.heappop(frontier)
        if name in seen:
            continue
        seen.add(name)
        gate = gates[name]
        if gate.is_input or gate.po_names:
            continue
        if all(
            sink.name in members or sink.name in cone
            for sink, _pin in gate.fanouts
        ):
            cone.add(name)
            push_fanins(gate)
    return cone


def _reach(netlist: Netlist, members) -> set:
    """Every gate a replay of a window's moves can change, bar the ones it
    adds: the window's ``members`` and inputs, every reader of a member
    (an OS move rewires the target's external readers too), the sweep
    cone (:func:`_sweep_cone`) and the cone's fanins, whose fanouts shrink
    when the cone dies.  Two windows conflict when either's reach meets
    the other's members."""
    members = set(members)
    gates = netlist.gates
    reach = set(members)
    for name in members:
        gate = gates[name]
        reach.update(fanin.name for fanin in gate.fanins)
        reach.update(sink.name for sink, _pin in gate.fanouts)
    for name in _sweep_cone(netlist, members):
        reach.add(name)
        reach.update(fanin.name for fanin in gates[name].fanins)
    return reach


# ----------------------------------------------------------------------
# The windowed optimizer
# ----------------------------------------------------------------------
class WindowedOptimizer:
    """Partition, optimize windows in generations on a pool, merge moves.

    Drives the full windowed flow described in the module docstring and
    returns an ordinary :class:`OptimizeResult` whose final metrics are
    recomputed from scratch on the merged netlist.  Its ``phase_seconds``
    separate ``spawn`` (pool startup) from ``optimize`` (the pool's work,
    summed over generations) so profiles of the pool path do not bill
    worker startup as optimizer time; ``partition`` also sums every
    generation's scheduling and export, and ``merge`` its replays.
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
        #: Indices of windows whose members an earlier replay of their own
        #: generation touched.  The reach rule keeps it empty; each entry
        #: is a bug the touch check caught and requeued.
        self.conflicts: list[int] = []
        from repro.telemetry.metrics import Metrics  # as in PowerOptimizer

        #: The run's timers, and its windows' summed rejection tallies.
        self.metrics = Metrics()
        self._total = self.metrics.timer("total")
        self._phases = {
            name: self.metrics.timer(f"phase.{name}") for name in PHASES
        }
        #: Indices of the windows still waiting for a generation.
        self._pending: set[int] = set()
        #: The worker pool while :meth:`run` holds one open (``jobs`` > 1).
        self._pool = None

    @property
    def generations(self) -> int:
        """How many generations the run optimized its windows in."""
        return len({
            outcome.generation
            for outcome in self.outcomes
            if outcome.generation is not None
        })

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

    def _live_window(self, window: Window) -> Optional[Window]:
        """``window`` as the live netlist holds it; ``None`` once no gate
        of it is left.

        While every partition member is live the window keeps them: it is
        returned as it is, and :meth:`_refresh` recomputes its order and
        boundary once a generation chooses it.  Once a replay removed a
        member, the window is re-extracted around its first live seed or
        member.
        """
        gates = self.netlist.gates
        if all(name in gates for name in window.members):
            return window
        for name in window.seeds + window.members:
            gate = gates.get(name)
            if gate is not None and not gate.is_input:
                return extract_window(
                    self.netlist,
                    gate,
                    radius=self.options.window_radius,
                    max_gates=self.options.window_size,
                    index=window.index,
                )
        return None

    def _refresh(self, window: Window) -> Window:
        """``window``'s members in live topological order, with the
        boundary the live netlist gives them."""
        netlist = self.netlist
        members = [netlist.gates[name] for name in window.members]
        inputs, outputs = recompute_boundary(netlist, members)
        topo = topological_index(netlist)
        members.sort(key=lambda gate: topo[id(gate)])
        return dataclasses.replace(
            window,
            members=tuple(gate.name for gate in members),
            inputs=tuple(inputs),
            outputs=tuple(outputs),
        )

    def _next_generation(self, windows: list[Window]) -> list[WindowOutcome]:
        """Choose, in window order, every pending window that conflicts
        with no window chosen before it; finish the ones with no live gate.

        Each chosen outcome's ``window`` becomes its live view.
        """
        chosen: list[WindowOutcome] = []
        claimed_members: set = set()
        claimed_reach: set = set()
        for index in sorted(self._pending):
            outcome = self.outcomes[index]
            window = windows[index]
            live = self._live_window(window)
            if live is None:
                self._pending.discard(index)
                outcome.status = "empty"
                continue
            if not claimed_reach.isdisjoint(live.members):
                continue
            reach = _reach(self.netlist, live.members)
            if not reach.isdisjoint(claimed_members):
                continue
            claimed_members.update(live.members)
            claimed_reach |= reach
            self._pending.discard(index)
            outcome.window = self._refresh(live) if live is window else live
            chosen.append(outcome)
        return chosen

    def _task(self, window: Window, probs: dict) -> tuple:
        """Export ``window`` from the live netlist as a pool task."""
        window_probs = {
            name: probs[name] for name in window.inputs if name in probs
        }
        sub, boundary = export_window(
            self.netlist, window, probabilities=window_probs
        )
        return (
            window.index,
            write_blif(sub),
            dict(boundary.po_loads),
            self._sub_options(boundary),
        )

    @contextlib.contextmanager
    def _open_pool(self):
        """Keep one worker pool open around the generation loop (none at
        ``jobs=1``); leaving the block terminates its workers, on error
        too."""
        jobs = self.options.jobs
        if jobs <= 1:
            yield
            return
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            ctx = multiprocessing.get_context("spawn")
        spawn = self._phases["spawn"]
        spawn.start()
        with ctx.Pool(
            processes=jobs,
            initializer=_init_worker,
            initargs=(self.netlist.library,),
        ) as pool:
            spawn.stop()
            self._pool = pool
            try:
                yield
            finally:
                self._pool = None

    def _dispatch(self, tasks: list) -> list:
        """Optimize one generation's window tasks on the run's pool, or
        inline when there is one task or no pool (``jobs=1``)."""
        if self._pool is None or len(tasks) <= 1:
            _init_worker(self.netlist.library)
            return [_optimize_window_task(task) for task in tasks]
        return self._pool.map(_optimize_window_task, tasks, chunksize=1)

    # ------------------------------------------------------------------
    def _replay(self, outcome: WindowOutcome, touched: set) -> list[MoveRecord]:
        """Replay one window's moves into the full netlist.

        Grows ``touched`` with every gate the replay changed: each move's
        target, rewired sinks and sources, and the gates it added, removed
        or left with fewer fanouts.  The substituting gate is a source or
        an added gate, or the tie gate a constant move reuses, which is
        left out: a constant's value and activity never change, so its new
        readers cannot stale another window's moves.  Returns the
        MoveRecords actually applied (window-local gain figures).
        """
        netlist = self.netlist
        name_map: dict = {}
        records: list[MoveRecord] = []
        for move in outcome.moves:
            substitution = _translate(move.substitution, name_map)
            if substitution.blocker(netlist) is not None:
                break
            if substitution.is_output_substitution():
                rewired = [
                    sink.name
                    for sink, _pin in netlist.gates[substitution.target].fanouts
                ]
            else:
                rewired = [substitution.branch[0]]
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
            touched.add(substitution.target)
            touched.update(rewired)
            touched.update(substitution.source_names())
            touched.update(applied.added)
            touched.update(applied.removed)
            touched.update(applied.boundary)
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

    def _reoptimize_deferred(self, outcome: WindowOutcome) -> None:
        """Return a window the touch check dropped to the pending set; the
        next generation optimizes it again from the live netlist."""
        outcome.status = "conflict"
        self._pending.add(outcome.window.index)

    def _merge(self, chosen: list[WindowOutcome]) -> list[MoveRecord]:
        """Replay one generation in window order behind the touch check."""
        records: list[MoveRecord] = []
        touched: set = set()
        for outcome in chosen:
            if not outcome.moves:
                outcome.status = "empty"
                continue
            if not touched.isdisjoint(outcome.window.members):
                self.conflicts.append(outcome.window.index)
                self._reoptimize_deferred(outcome)
                continue
            applied = self._replay(outcome, touched)
            records.extend(applied)
            outcome.status = "applied" if applied else "empty"
        return records

    # ------------------------------------------------------------------
    def run(self) -> OptimizeResult:
        opts = self.options
        netlist = self.netlist
        phases = self._phases
        self._total.start()

        engine = SimulationProbability(
            netlist,
            num_patterns=opts.num_patterns,
            seed=opts.seed,
            input_probs=opts.input_probs,
        )
        initial_power = PowerEstimator(netlist, engine).total()
        initial_area = netlist.total_area()
        initial_delay = TimingAnalysis(netlist).circuit_delay

        with phases["partition"]:
            windows = partition_windows(
                netlist, radius=opts.window_radius, max_gates=opts.window_size
            )
            probs = self._boundary_probabilities(engine)
        self.outcomes = [WindowOutcome(window=window) for window in windows]
        self._pending = set(range(len(windows)))

        records: list[MoveRecord] = []
        generation = 0
        with self._open_pool():
            while self._pending:
                with phases["partition"]:
                    chosen = self._next_generation(windows)
                    tasks = [self._task(outcome.window, probs) for outcome in chosen]

                with phases["optimize"]:
                    results = {result[0]: result for result in self._dispatch(tasks)}

                errors = []
                for outcome in chosen:
                    index = outcome.window.index
                    _index, moves, counters, error = results[index]
                    outcome.generation = generation
                    outcome.moves = list(moves)
                    outcome.error = error
                    for name, value in counters.items():
                        self.metrics.increment(name, value)
                    if error is not None:
                        outcome.status = "error"
                        errors.append(
                            f"window {index} ({outcome.window.seeds[0]}): {error}"
                        )
                if errors:
                    raise TransformError(
                        "windowed optimization failed in "
                        f"{len(errors)} worker(s): " + "; ".join(errors[:3])
                    )

                with phases["merge"]:
                    records.extend(self._merge(chosen))
                generation += 1

        with phases["metrics"]:
            final_engine = SimulationProbability(
                netlist,
                num_patterns=opts.num_patterns,
                seed=opts.seed,
                input_probs=opts.input_probs,
            )
            final_power = PowerEstimator(netlist, final_engine).total()
            final_delay = TimingAnalysis(netlist).circuit_delay
        self._total.stop()

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
            delay_limit=None,
            **registry_fields(self.metrics, PHASES),
        )

