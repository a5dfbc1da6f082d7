"""Scale benches: flat vs. windowed optimizer throughput (gates/sec).

The numbers recorded in ``BENCH_scale.json`` come from these benches run
over ``large``-shape generator netlists (64 PIs, exact gate budget).  The
throughput baseline is measured at a size the flat optimizer finishes
quickly, and the windowed flow carries the larger sizes.

Worker-pool size comes from the harness ``--jobs`` option::

    PYTHONPATH=src python -m pytest benchmarks/bench_scale.py --jobs 4 -s

Pool spawn time is reported separately (``spawn_seconds``) and excluded
from the throughput figure, so worker startup is never billed as
optimizer time.

The flat-round permissibility bench runs one flat round at 600 and
1,200 gates and reports where its permissibility checks spend their
time, and how many candidates the round built (:func:`flat_round`).  It
also runs without pytest-benchmark, and exits nonzero when a SAT budget
ran out or a target row built more candidates than it may keep::

    PYTHONPATH=src python -m benchmarks.bench_scale 600 1200

With ``--windowed`` it runs the windowed flow on a two-process pool
instead (:func:`windowed_run`) and exits nonzero when the touch check
deferred any window::

    PYTHONPATH=src python -m benchmarks.bench_scale --windowed 600 2000
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import pytest

from benchmarks.conftest import once
from repro.fuzz.generator import large_config, random_mapped_netlist
from repro.library.standard import standard_library
from repro.pipeline.context import OptimizationContext
from repro.telemetry import Tracer
from repro.transform import candidates
from repro.transform.optimizer import OptimizeOptions, PowerOptimizer
from repro.transform.permissible import TriageChecker
from repro.transform.windowed import WindowedOptimizer

#: The flat baseline is quadratic-ish; keep it at a size it finishes.
SEQUENTIAL_GATES = 300
WINDOWED_GATES = 600
#: Sizes of the flat-round permissibility bench.
FLAT_ROUND_GATES = (600, 1_200)
#: Pool size of the windowed rows ``main`` prints.
WINDOWED_JOBS = 2
SCALE_SEED = 9


def _large(num_gates):
    lib = standard_library()
    return random_mapped_netlist(large_config(SCALE_SEED, num_gates), lib)


def _scale_options(**overrides):
    base = dict(num_patterns=64, max_rounds=1)
    base.update(overrides)
    return OptimizeOptions(**base)


def _windowed_options(jobs):
    return _scale_options(
        windowed=True, window_size=40, window_radius=3, jobs=jobs
    )


def test_sequential_baseline(benchmark):
    """Flat PowerOptimizer throughput at a size it can handle."""
    netlist = _large(SEQUENTIAL_GATES)

    def run():
        tick = time.perf_counter()
        result = PowerOptimizer(netlist.copy(), _scale_options()).run()
        return result, time.perf_counter() - tick

    result, seconds = once(benchmark, run)
    benchmark.extra_info["gates"] = SEQUENTIAL_GATES
    benchmark.extra_info["gates_per_sec"] = round(
        SEQUENTIAL_GATES / seconds, 1
    )
    benchmark.extra_info["moves"] = len(result.moves)


def test_windowed_throughput(benchmark, jobs):
    """Windowed flow at the harness ``--jobs`` worker count."""
    netlist = _large(WINDOWED_GATES)
    options = _windowed_options(jobs)

    def run():
        optimizer = WindowedOptimizer(netlist.copy(), options)
        tick = time.perf_counter()
        result = optimizer.run()
        wall = time.perf_counter() - tick
        spawn = result.phase_seconds.get("spawn", 0.0)
        return optimizer, result, wall - spawn, spawn

    optimizer, result, work_seconds, spawn_seconds = once(benchmark, run)
    benchmark.extra_info["gates"] = WINDOWED_GATES
    benchmark.extra_info["jobs"] = jobs
    benchmark.extra_info["spawn_seconds"] = round(spawn_seconds, 3)
    benchmark.extra_info["gates_per_sec"] = round(
        WINDOWED_GATES / work_seconds, 1
    )
    benchmark.extra_info["windows"] = result.rounds
    benchmark.extra_info["generations"] = optimizer.generations
    benchmark.extra_info["deferrals"] = len(optimizer.conflicts)
    benchmark.extra_info["moves"] = len(result.moves)


def windowed_run(num_gates: int, jobs: int = WINDOWED_JOBS) -> dict:
    """One windowed run on the ``large`` shape.

    Returns the run's wall seconds and its ``spawn``, ``partition`` and
    ``optimize`` phase seconds, the windows, the generations they ran in,
    the deferrals (windows the touch check caught and requeued), the
    moves, and the power and area left in percent of the initial totals.
    """
    optimizer = WindowedOptimizer(_large(num_gates), _windowed_options(jobs))
    tick = time.perf_counter()
    result = optimizer.run()
    wall = time.perf_counter() - tick
    phases = result.phase_seconds
    return {
        "gates": num_gates,
        "jobs": jobs,
        "wall_s": round(wall, 3),
        "spawn_s": round(phases["spawn"], 3),
        "partition_s": round(phases["partition"], 3),
        "optimize_s": round(phases["optimize"], 3),
        "windows": result.rounds,
        "generations": optimizer.generations,
        "deferrals": len(optimizer.conflicts),
        "moves": len(result.moves),
        "power_pct": round(100.0 * result.final_power / result.initial_power, 2),
        "area_pct": round(100.0 * result.final_area / result.initial_area, 2),
    }


def flat_round(num_gates: int) -> dict:
    """One flat round on the ``large`` shape, its triage checker timed.

    Returns the round's wall seconds, the seconds spent generating
    candidates (``candidates_s``), the ``Candidate`` objects it built
    (``candidates_built``), its exact-path ``quick_gain`` calls
    (``exact_gains``), its target rows times ``max_per_target``
    (``build_limit``), the seconds in ``TriageChecker.check``
    (``check_s``) and in its SAT stage (``sat_s``), the SAT calls,
    ``atpg_backtracks`` (the SAT stage's conflicts), ``triage_fallbacks``
    (exhausted SAT budgets), the moves and the power left.
    """
    netlist = _large(num_gates)
    options = _scale_options(trace=Tracer())
    triage = TriageChecker(netlist)
    seconds = {"check": 0.0, "sat": 0.0}
    counts = {"built": 0, "exact": 0, "rows": 0}
    build = candidates.Candidate.__init__
    exact_gain = candidates.quick_gain
    target_table = candidates.CandidateWorkspace._target_table
    build_triage = OptimizationContext._build_triage

    def counted_build(self, *args, **kwargs):
        counts["built"] += 1
        build(self, *args, **kwargs)

    def counted_exact_gain(*args):
        counts["exact"] += 1
        return exact_gain(*args)

    def counted_target_table(self, *args):
        table = target_table(self, *args)
        counts["rows"] += len(table.keys)
        return table

    def timed(method, key):
        def wrapper(substitution):
            tick = time.perf_counter()
            try:
                return method(substitution)
            finally:
                seconds[key] += time.perf_counter() - tick

        return wrapper

    triage.check = timed(triage.check, "check")
    triage.sat_verdict = timed(triage.sat_verdict, "sat")
    OptimizationContext._build_triage = lambda _ctx: triage
    candidates.Candidate.__init__ = counted_build
    candidates.quick_gain = counted_exact_gain
    candidates.CandidateWorkspace._target_table = counted_target_table
    try:
        tick = time.perf_counter()
        result = PowerOptimizer(netlist, options).run()
        wall = time.perf_counter() - tick
    finally:
        OptimizationContext._build_triage = build_triage
        candidates.Candidate.__init__ = build
        candidates.quick_gain = exact_gain
        candidates.CandidateWorkspace._target_table = target_table
    counters = result.trace.counters
    return {
        "gates": num_gates,
        "wall_s": round(wall, 3),
        "candidates_s": round(result.phase_seconds["candidates"], 3),
        "candidates_built": counts["built"],
        "exact_gains": counts["exact"],
        "build_limit": counts["rows"] * options.candidates.max_per_target,
        "check_s": round(seconds["check"], 3),
        "sat_s": round(seconds["sat"], 3),
        "sat_calls": counters["triage_sat_calls"],
        "atpg_backtracks": counters["atpg_backtracks"],
        "triage_fallbacks": counters["triage_fallbacks"],
        "moves": len(result.moves),
        "final_power": result.final_power,
    }


@pytest.mark.parametrize("num_gates", FLAT_ROUND_GATES)
def test_flat_round_permissibility(benchmark, num_gates):
    """One flat round: where the permissibility checks spend their time."""
    row = once(benchmark, flat_round, num_gates)
    benchmark.extra_info.update(row)


def main(argv: list[str]) -> int:
    """Print one JSON row per size: a flat round, or a windowed run with
    ``--windowed``.  Returns 1 if any SAT budget ran out or the round
    built more candidates than its rows keep (flat), or if any window was
    deferred (windowed)."""
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.bench_scale",
        description="Scale rows on the large generator shape.",
    )
    parser.add_argument(
        "--windowed", action="store_true",
        help=f"run the windowed flow on {WINDOWED_JOBS} processes "
        "instead of one flat round",
    )
    parser.add_argument("sizes", nargs="*", type=int, metavar="GATES")
    args = parser.parse_args(argv)
    if args.windowed:
        run, sizes, failure = windowed_run, [WINDOWED_GATES], "deferrals"
    else:
        run, sizes, failure = flat_round, list(FLAT_ROUND_GATES), "triage_fallbacks"
    failures = 0
    for num_gates in args.sizes or sizes:
        row = run(num_gates)
        print(json.dumps(row), flush=True)
        failures += row[failure]
        if row.get("candidates_built", 0) > row.get("build_limit", 0):
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
