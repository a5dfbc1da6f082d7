"""The optimizer workloads (goldens, delay, windowed) and their shared run loop.

Each workload fixes its circuits and optimizer options.  The timed
optimizations always use the pinned protocol seed, so their work, moves
and quality are identical in every run; the workload seed picks the
circuit and the pattern seed of the untimed warm-up optimization, whose
output is proven equivalent like every other.

One run of a workload:

1. set-up, repeated :data:`SETUP_REPEATS` times: build the cell library
   and parse or build the circuits (``setup_s`` is the import time plus
   the median repetition),
2. one untimed warm-up optimization at the workload seed,
3. ``repetitions`` timed passes over the circuits; ``optimize_s`` is the
   sum over circuits of each circuit's median wall time,
4. the correctness gate (:mod:`perfbench.gate`), outside the timed region.

With tracing on, each timed pass is followed by the same pass under the
span recorder, so the traced and untraced times come from one process.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import gate
from perfbench.hostspeed import SpeedMeter

#: Pattern seed of every timed optimization (the golden-trace protocol).
PROTOCOL_SEED = 2024
#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5
#: Fewest timed passes per run, whatever ``--seconds`` says.
MIN_REPETITIONS = 3


@dataclass
class Report:
    """What one workload run measured and found."""

    metrics: dict = field(default_factory=dict)
    #: Per-layer values the workload measures itself (tracing on only).
    layers: dict = field(default_factory=dict)
    #: Traced units of timed work (the divisor of the span totals).
    units: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    config: dict = field(default_factory=dict)


def repetitions(seconds: float, unit_seconds: float) -> int:
    """Timed passes that fill about ``seconds`` at ``unit_seconds`` each.

    Derived from the requested run length only, never from a clock, so two
    runs with the same arguments do identical work.
    """
    return max(MIN_REPETITIONS, round(seconds / unit_seconds))


def fresh_library():
    """The standard cell library, parsed anew (no process-wide cache)."""
    from repro.library import STANDARD_GENLIB, parse_genlib

    library = parse_genlib(STANDARD_GENLIB, name="repro-std")
    library.validate()
    return library


class OptimizerWorkload:
    """A fixed set of circuits optimized with fixed options."""

    name = ""
    circuits: tuple[str, ...] = ()
    #: Nominal seconds of one timed pass (sizes the repetition count).
    unit_seconds = 5.0
    #: Whether the optimization runs in this process alone.  Only then are
    #: its times divided by the host-speed factor: the probe runs on one
    #: CPU, and on pool workloads it tracked the timings worse than none
    #: (spread over ten runs 13.8% normalized, 10.3% raw).
    single_process = True

    def __init__(self, root: Path, jobs: int):
        self.root = root
        self.jobs = jobs

    def build(self, library) -> dict:
        raise NotImplementedError

    def options(self, seed: int):
        raise NotImplementedError

    def optimize(self, netlist, seed: int):
        from repro.transform.optimizer import power_optimize

        return power_optimize(netlist, self.options(seed))

    def check(self, name: str, original, result, seed: int) -> list[str]:
        """Problems with one result (empty when it is correct)."""
        return gate.prove_equivalent(name, original, result.netlist)

    def parameters(self) -> dict:
        options = self.options(PROTOCOL_SEED).to_dict()
        options.pop("candidates")
        return {"circuits": list(self.circuits), "options": options}


class Goldens(OptimizerWorkload):
    """Table-1 protocol on the four bundled BLIFs with golden traces."""

    name = "goldens"
    circuits = ("rd53", "misex1", "sqrt8", "ttt2")

    def build(self, library) -> dict:
        from repro.netlist.blif import parse_blif_file

        blif = self.root / "benchmarks" / "blif"
        return {
            name: parse_blif_file(blif / f"{name}.blif", library)
            for name in self.circuits
        }

    def options(self, seed: int):
        from repro.transform.optimizer import OptimizeOptions

        return OptimizeOptions(num_patterns=512, seed=seed)

    def check(self, name, original, result, seed):
        problems = super().check(name, original, result, seed)
        if seed == PROTOCOL_SEED:
            problems += gate.match_golden(self.root, name, result)
        return problems


class Delay(OptimizerWorkload):
    """Table-2 protocol: no delay slack, so many moves are rejected."""

    name = "delay"
    circuits = ("comp", "clip", "bw", "Z5xp1")

    def build(self, library) -> dict:
        from repro.bench.suite import build_benchmark

        return {name: build_benchmark(name, library) for name in self.circuits}

    def options(self, seed: int):
        from repro.transform.optimizer import OptimizeOptions

        return OptimizeOptions(
            num_patterns=512, delay_slack_percent=0, seed=seed
        )

    def check(self, name, original, result, seed):
        problems = super().check(name, original, result, seed)
        if result.final_delay > result.initial_delay + 1e-9:
            problems.append(
                f"{name}: final delay {result.final_delay} exceeds the "
                f"initial delay {result.initial_delay}"
            )
        return problems


class Windowed(OptimizerWorkload):
    """Windowed optimization of one circuit on a process pool."""

    name = "windowed"
    circuits = ("misex3",)
    unit_seconds = 3.0
    single_process = False

    def build(self, library) -> dict:
        from repro.bench.suite import build_benchmark

        return {name: build_benchmark(name, library) for name in self.circuits}

    def options(self, seed: int):
        from repro.transform.optimizer import OptimizeOptions

        return OptimizeOptions(
            windowed=True, jobs=self.jobs, window_size=40, window_radius=3,
            num_patterns=64, max_rounds=1, seed=seed,
        )

    def optimize(self, netlist, seed: int):
        from repro.transform.windowed import WindowedOptimizer

        return WindowedOptimizer(netlist, self.options(seed)).run()


OPTIMIZER_WORKLOADS = {
    workload.name: workload for workload in (Goldens, Delay, Windowed)
}


def _signature(result) -> tuple:
    return (len(result.moves), result.final_power, result.final_area)


def _sum_of_medians(table: dict) -> float:
    return sum(statistics.median(values) for values in table.values() if values)


def run_optimizer_workload(
    workload: OptimizerWorkload,
    seed: int,
    seconds: float,
    import_s: float,
    recorder=None,
) -> Report:
    """Set up, warm up, time, and check one optimizer workload."""
    report = Report()
    clock = time.perf_counter
    meter = SpeedMeter() if workload.single_process else None

    def reference(seconds: float) -> float:
        return meter.normalize(seconds) if meter is not None else seconds

    samples = []
    for _ in range(SETUP_REPEATS):
        tick = clock()
        circuits = workload.build(fresh_library())
        samples.append(clock() - tick)
    if recorder is not None:
        with recorder.root("setup"):
            workload.build(fresh_library())

    outputs: list = []  # (circuit, seed, original, result)

    def attempt(name: str, run_seed: int, traced: bool = False):
        """One optimization on a fresh copy; its wall seconds or None."""
        original = circuits[name]
        netlist = original.copy()
        if meter is not None:
            meter.sample()
        gc.collect()
        report.attempted += 1
        tick = clock()
        try:
            if traced:
                with recorder.root("unit"):
                    result = workload.optimize(netlist, run_seed)
            else:
                result = workload.optimize(netlist, run_seed)
        except Exception:  # noqa: BLE001 - a failed operation is reported
            report.failed += 1
            report.problems.append(
                f"{name}: optimization raised\n{traceback.format_exc()}"
            )
            return None
        elapsed = clock() - tick
        if meter is not None:
            meter.sample()
        outputs.append((name, run_seed, original, result))
        return elapsed

    warm = random.Random(seed).choice(sorted(circuits))
    attempt(warm, seed)

    reps = repetitions(seconds, workload.unit_seconds)
    times: dict = {name: [] for name in circuits}
    traced: dict = {name: [] for name in circuits}
    for _ in range(reps):
        for name in circuits:
            elapsed = attempt(name, PROTOCOL_SEED)
            if elapsed is not None:
                times[name].append(elapsed)
        if recorder is not None:
            for name in circuits:
                elapsed = attempt(name, PROTOCOL_SEED, traced=True)
                if elapsed is not None:
                    traced[name].append(elapsed)

    protocol: dict = {}
    for name, run_seed, original, result in outputs:
        report.problems += workload.check(name, original, result, run_seed)
        if run_seed != PROTOCOL_SEED:
            continue
        first = protocol.setdefault(name, result)
        if _signature(result) != _signature(first):
            report.problems.append(
                f"{name}: repeated runs differ: {_signature(result)} "
                f"!= {_signature(first)}"
            )

    optimize_s = _sum_of_medians(times)
    setup_s = import_s + statistics.median(samples)
    report.metrics = {
        "setup_s": reference(setup_s),
        "optimize_s": reference(optimize_s),
        **gate.quality(gate.summary(result) for result in protocol.values()),
        "peak_rss_mb": gate.peak_rss_mb(),
    }
    if recorder is not None:
        report.units = reps
        report.layers = {"trace.overhead_s": reference(
            _sum_of_medians(traced) - optimize_s)}
    report.config = {
        "workload": workload.name,
        "seed": seed,
        "protocol_seed": PROTOCOL_SEED,
        "repetitions": reps,
        "setup_repeats": SETUP_REPEATS,
        "warm_up_circuit": warm,
        "raw_setup_s": setup_s,
        "raw_optimize_s": optimize_s,
        "speed_factor": meter.factor if meter is not None else None,
        **workload.parameters(),
    }
    return report
