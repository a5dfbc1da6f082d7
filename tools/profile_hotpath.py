"""Profile one optimizer run and report where the time goes.

The perf work on the packed kernels and the triage permissibility engine
is steered by exactly two views: the optimizer's own per-phase wall
clock (candidates / select / timing / atpg / apply) and a cProfile
ranking of the functions underneath the hot phase.  This script prints
both for one run over a bundled benchmark, so a regression (or a
proposed optimization) can be localized in seconds:

    PYTHONPATH=src python tools/profile_hotpath.py ttt2
    PYTHONPATH=src python tools/profile_hotpath.py rd53 --top 30
    PYTHONPATH=src python tools/profile_hotpath.py ttt2 --sort cumulative \
        --dump /tmp/ttt2.pstats   # then e.g. snakeviz /tmp/ttt2.pstats
    PYTHONPATH=src python tools/profile_hotpath.py ttt2 --windowed --jobs 4

With ``--windowed`` the run goes through :class:`WindowedOptimizer`; the
pool's startup cost shows up as its own ``spawn`` phase and is subtracted
from the wall clock used for phase shares, so worker spawn overhead is
never billed as optimizer time.

The default configuration mirrors benchmarks/BENCH_kernels.json (1024
patterns, repeat=15, max_rounds=6) so printed numbers are directly
comparable to the committed records.  Wall-clock on a shared box wanders
+/-20%; trust the relative ranking, and pin absolute claims with a
best-of-N loop (``--repeat``).
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.bench.suite import build_benchmark  # noqa: E402
from repro.library.standard import standard_library  # noqa: E402
from repro.transform.optimizer import (  # noqa: E402
    OptimizeOptions,
    PowerOptimizer,
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "benchmark",
        nargs="?",
        default="ttt2",
        help="bundled benchmark name (benchmarks/blif/<name>.blif)",
    )
    parser.add_argument("--patterns", type=int, default=1024)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument(
        "--windowed",
        action="store_true",
        help="profile the windowed flow instead of the flat optimizer",
    )
    parser.add_argument("--jobs", type=int, default=1,
                        help="windowed worker-pool size (implies --windowed)")
    parser.add_argument("--window-size", type=int, default=80,
                        dest="window_size")
    parser.add_argument("--window-radius", type=int, default=3,
                        dest="window_radius")
    parser.add_argument("--repeat", type=int, default=1, dest="runs",
                        help="profile the best (fastest) of N runs")
    parser.add_argument("--top", type=int, default=20,
                        help="profile rows to print (default: 20)")
    parser.add_argument(
        "--sort",
        default="tottime",
        choices=["tottime", "cumulative", "ncalls"],
    )
    parser.add_argument("--dump", metavar="FILE",
                        help="also write raw pstats data to FILE")
    return parser.parse_args(argv)


def one_run(args):
    """(wall seconds, phase seconds, moves, profile) for one fresh run."""
    netlist = build_benchmark(args.benchmark, standard_library())
    windowed = args.windowed or args.jobs > 1
    options = OptimizeOptions(
        num_patterns=args.patterns,
        repeat=15,
        max_rounds=args.rounds,
        windowed=windowed,
        jobs=args.jobs,
        window_size=args.window_size,
        window_radius=args.window_radius,
    )
    if windowed:
        from repro.transform.windowed import WindowedOptimizer

        optimizer = WindowedOptimizer(netlist, options)
    else:
        optimizer = PowerOptimizer(netlist, options)
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    result = optimizer.run()
    profile.disable()
    wall = time.perf_counter() - start
    phases = dict(optimizer.phase_seconds)
    # Pool startup is environment cost, not optimizer work: keep the
    # phase row but take it out of the wall clock the shares divide by.
    wall -= phases.get("spawn", 0.0)
    return wall, phases, len(result.moves), profile


def main(argv=None) -> int:
    args = parse_args(argv)
    best = None
    for _ in range(max(1, args.runs)):
        run = one_run(args)
        if best is None or run[0] < best[0]:
            best = run
    wall, phases, moves, profile = best

    flow = (
        f"windowed jobs={args.jobs}"
        if args.windowed or args.jobs > 1
        else "flat"
    )
    print(f"{args.benchmark}: {wall:.3f}s wall (profiled, spawn excluded), "
          f"{moves} moves, flow={flow}")
    print("phase wall clock:")
    for phase, seconds in sorted(phases.items(), key=lambda kv: -kv[1]):
        share = seconds / wall if wall else 0.0
        print(f"  {phase:12s} {seconds:7.3f}s  {share:5.1%}")
    print()

    stats = pstats.Stats(profile, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.dump:
        stats.dump_stats(args.dump)
        print(f"raw pstats written to {args.dump}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
